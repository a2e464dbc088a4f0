package objmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"obiwan/internal/codec"
	"obiwan/internal/invoke"
)

// InvocationMode selects how a Ref's Invoke reaches the target — the
// paper's headline capability: "the application [decides], in run-time,
// the mechanism by which objects should be invoked, remote method
// invocation or invocation on a local replica".
type InvocationMode uint8

const (
	// ModeLocal (default) replicates the target on first use (raising an
	// object fault) and invokes the local replica — LMI.
	ModeLocal InvocationMode = iota
	// ModeRemote invokes the master through its proxy-in via RMI, never
	// replicating.
	ModeRemote
	// ModeAuto lets the platform's QoS model choose per invocation.
	ModeAuto
)

func (m InvocationMode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeRemote:
		return "remote"
	case ModeAuto:
		return "auto"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Faulter resolves an object fault: it replicates the Ref's target into
// this site and returns the local replica. Implemented by the replication
// engine's proxy-out.
type Faulter interface {
	// ResolveFault performs the demand: fetch the target (and, per the
	// replication spec, a batch or cluster around it), materialize it
	// locally, and return it together with a remote invoker for later
	// master-directed calls (which may be nil).
	ResolveFault() (local any, remote RemoteInvoker, err error)
}

// RemoteInvoker invokes a method on the master copy of an object via RMI.
type RemoteInvoker interface {
	RemoteInvoke(method string, args []any) ([]any, error)
}

// AutoDecider is optionally implemented by Faulters that can advise
// ModeAuto refs whether replicating now beats continuing over RMI.
type AutoDecider interface {
	// PreferLocal reports whether, after n invocations through this ref,
	// faulting the object in is expected to win over RMI.
	PreferLocal(n uint64) bool
}

// InvokeSink takes a site's invocation counts: its profiler (objmodel
// stays telemetry-agnostic). An RMI is pushed as it is sent. LMIs wait in
// an InvokeLog until the sink drains it.
type InvokeSink interface {
	RecordInvoke(oid uint64, remote bool)
	DrainLMIs() // called by a full log
}

// InvokeLog lists a site's refs holding LMIs not yet drained. A Ref counts
// an LMI under the lock Invoke already holds and joins the log on its first
// LMI since the last drain. Lock order: the sink's, the log's, a ref's.
type InvokeLog struct {
	sink    InvokeSink
	mu      sync.Mutex
	pending []lmiCount // at most invokeLogBound
}

// lmiCount is a ref whose count the drain reads, or (ref nil) a count that
// a rebind or the count's maximum took out of a ref.
type lmiCount struct {
	ref *Ref
	oid OID
	n   uint64
}

// invokeLogBound bounds a log. Its entries are allocated with the log, so
// no LMI grows it.
const invokeLogBound = 64

// NewInvokeLog returns an empty log whose counts go to sink.
func NewInvokeLog(sink InvokeSink) *InvokeLog {
	return &InvokeLog{sink: sink, pending: make([]lmiCount, 0, invokeLogBound)}
}

// Observe makes r count its invocations into l (a nil log: none). A ref
// without a log counts nothing, for one nil check inside the mutex hold
// Invoke already takes.
func (l *InvokeLog) Observe(r *Ref) {
	if l != nil {
		r.mu.Lock()
		r.log = l
		r.mu.Unlock()
	}
}

// add appends c (a nil log adds nothing), draining a full log first.
func (l *InvokeLog) add(c lmiCount) {
	if l == nil {
		return
	}
	l.mu.Lock()
	for len(l.pending) >= invokeLogBound {
		l.mu.Unlock()
		l.sink.DrainLMIs()
		l.mu.Lock()
	}
	l.pending = append(l.pending, c)
	l.mu.Unlock()
}

// Drain hands add each pending count in the order it joined and empties
// the log, which then holds no ref. The sink calls it under its own lock.
func (l *InvokeLog) Drain(add func(oid, n uint64)) {
	l.mu.Lock()
	for _, c := range l.pending {
		if r := c.ref; r != nil {
			r.mu.Lock()
			c.oid, c.n, r.lmis, r.queued = r.oid, uint64(r.lmis), 0, false
			r.mu.Unlock()
		}
		if c.n > 0 {
			add(uint64(c.oid), c.n)
		}
	}
	clear(l.pending)
	l.pending = l.pending[:0]
	l.mu.Unlock()
}

// ErrUnboundRef is returned when an unresolved Ref has no faulter to
// demand its target from.
var ErrUnboundRef = errors.New("objmodel: unbound reference")

// Ref is the reference slot an OBIWAN object holds in place of a direct
// pointer to another OBIWAN object. It is the Go rendering of the paper's
// interface-typed fields: before replication the slot is backed by a
// proxy-out (method calls raise an object fault); after resolution it holds
// the local object and calls are direct, "with no indirection at all".
//
// A Ref is safe for concurrent use. The zero Ref is unbound.
type Ref struct {
	mu      sync.Mutex
	oid     OID
	local   any
	faulter Faulter
	remote  RemoteInvoker
	mode    InvocationMode
	queued  bool   // on log since the last drain
	lmis    uint32 // LMIs not yet drained, counted against oid
	log     *InvokeLog

	// method is the handle of the last method invoked on a local target. It
	// is checked against the target and the method name on every use
	// (Fits), so a rebind need not clear it.
	method *invoke.Method

	// calls counts invocations through this ref, feeding the Auto policy's
	// crossover model (figure 4).
	calls uint64

	// faultMu serializes fault resolution so concurrent first calls issue
	// one demand.
	faultMu sync.Mutex
}

var _ codec.Marshaler = (*Ref)(nil)
var _ codec.Unmarshaler = (*Ref)(nil)

// NewLocalRef returns a Ref bound to a local object with identity oid.
func NewLocalRef(target any, oid OID) *Ref {
	return &Ref{oid: oid, local: target}
}

// NewFaultingRef returns an unresolved Ref whose target will be demanded
// from f on first use. remote may be nil if the target cannot be invoked
// remotely.
func NewFaultingRef(oid OID, f Faulter, remote RemoteInvoker) *Ref {
	return &Ref{oid: oid, faulter: f, remote: remote}
}

// OID returns the identity of the ref's target (0 if never bound).
func (r *Ref) OID() OID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oid
}

// IsResolved reports whether the target is locally available.
func (r *Ref) IsResolved() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.local != nil
}

// Mode returns the ref's invocation mode.
func (r *Ref) Mode() InvocationMode {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mode
}

// SetMode switches the invocation mode at run time.
func (r *Ref) SetMode(m InvocationMode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mode = m
}

// Calls returns how many invocations have gone through this ref.
func (r *Ref) Calls() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// BindLocal splices a local target into the slot — the paper's
// updateMember step. Any proxy-out backing the slot is detached (and
// becomes garbage). The remote invoker is retained so ModeRemote keeps
// working after resolution.
func (r *Ref) BindLocal(target any, oid OID) {
	r.mu.Lock()
	l, c := r.setOID(oid)
	r.local = target
	r.faulter = nil
	r.mu.Unlock()
	l.add(c)
}

// BindFault points the slot at a proxy-out.
func (r *Ref) BindFault(oid OID, f Faulter, remote RemoteInvoker) {
	r.mu.Lock()
	l, c := r.setOID(oid)
	r.faulter = f
	if remote != nil {
		r.remote = remote
	}
	r.local = nil
	r.mu.Unlock()
	l.add(c)
}

// setOID rebinds r to oid. LMIs counted under the old OID keep it: the
// caller adds the returned count to the log once it unlocks r.mu.
func (r *Ref) setOID(oid OID) (l *InvokeLog, c lmiCount) {
	if oid != r.oid && r.lmis > 0 {
		l, c, r.lmis = r.log, lmiCount{oid: r.oid, n: uint64(r.lmis)}, 0
	}
	r.oid = oid
	return l, c
}

// countLMI counts one LMI and returns what the caller adds to r's log once
// it unlocks r.mu (nil log: nothing): r itself on its first LMI since the
// last drain, or its count at the count's maximum.
func (r *Ref) countLMI() (*InvokeLog, lmiCount) {
	switch {
	case r.log == nil:
	case !r.queued:
		r.lmis, r.queued = r.lmis+1, true
		return r.log, lmiCount{ref: r}
	case r.lmis == math.MaxUint32-1:
		r.lmis = 0
		return r.log, lmiCount{oid: r.oid, n: math.MaxUint32}
	default:
		r.lmis++
	}
	return nil, lmiCount{}
}

// SetRemote installs the remote invoker used by ModeRemote.
func (r *Ref) SetRemote(remote RemoteInvoker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remote = remote
}

// Remote returns the ref's remote invoker, if any.
func (r *Ref) Remote() RemoteInvoker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.remote
}

// Faulter returns the proxy-out backing an unresolved ref, or nil. The
// replication engine uses it to propagate frontier information (e.g. when a
// master site itself holds proxies to objects at a third site).
func (r *Ref) Faulter() Faulter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faulter
}

// Resolve returns the local target, raising and resolving an object fault
// if the target is not yet replicated here.
func (r *Ref) Resolve() (any, error) {
	r.mu.Lock()
	obj := r.local
	r.mu.Unlock()
	if obj != nil {
		return obj, nil
	}
	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	// Another goroutine may have resolved while we waited.
	r.mu.Lock()
	obj, f := r.local, r.faulter
	r.mu.Unlock()
	switch {
	case obj != nil:
		return obj, nil
	case f == nil:
		return nil, ErrUnboundRef
	}

	local, remote, err := f.ResolveFault()
	if err != nil {
		return nil, fmt.Errorf("objmodel: fault on %v: %w", r.OID(), err)
	}
	r.mu.Lock()
	r.local = local
	r.faulter = nil
	if remote != nil {
		r.remote = remote
	}
	r.mu.Unlock()
	return local, nil
}

// Invoke calls method on the ref's target following the invocation mode:
// LMI on the (possibly just-replicated) local object, or RMI to the master.
// A call on a local target reads the ref in one critical section and goes
// through the cached method handle, entering neither Resolve nor the plan
// cache. An LMI is counted once the target is local, so a failed fault is
// not counted.
func (r *Ref) Invoke(method string, args ...any) ([]any, error) {
	r.mu.Lock()
	r.calls++
	n, mode, local, remote, faulter, log, oid := r.calls, r.mode, r.local, r.remote, r.faulter, r.log, r.oid
	if local != nil && (mode != ModeRemote || remote == nil) {
		l, c := r.countLMI()
		m := r.method
		var err error
		if !m.Fits(local, method) {
			if m, err = invoke.Lookup(local, method); err == nil {
				r.method = m
			}
		}
		r.mu.Unlock()
		if l != nil {
			l.add(c)
		}
		if err != nil {
			return nil, err
		}
		return m.Invoke(local, args)
	}
	r.mu.Unlock()

	useRemote := mode == ModeRemote && remote != nil
	if mode == ModeAuto && remote != nil {
		if ad, ok := faulter.(AutoDecider); ok {
			useRemote = !ad.PreferLocal(n)
		}
	}
	if useRemote {
		if log != nil {
			log.sink.RecordInvoke(uint64(oid), true)
		}
		results, err := remote.RemoteInvoke(method, args)
		if err != nil {
			return nil, fmt.Errorf("objmodel: remote invoke %s on %v: %w", method, oid, err)
		}
		return results, nil
	}

	obj, err := r.Resolve()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	l, c := r.countLMI()
	r.mu.Unlock()
	l.add(c)
	return invoke.Call(obj, method, args)
}

// Deref resolves the ref and asserts the target to T, giving typed,
// indirection-free access — the post-updateMember fast path.
func Deref[T any](r *Ref) (T, error) {
	var zero T
	obj, err := r.Resolve()
	if err != nil {
		return zero, err
	}
	t, ok := obj.(T)
	if !ok {
		return zero, fmt.Errorf("objmodel: %v holds %T, not %T", r.OID(), obj, zero)
	}
	return t, nil
}

// MarshalOBI appends the ref's wire form, its target OID as one uvarint.
// The surrounding payload carries the information needed to rebind it at
// the receiving site.
func (r *Ref) MarshalOBI(dst []byte) ([]byte, error) {
	r.mu.Lock()
	oid := r.oid
	r.mu.Unlock()
	if oid == 0 {
		return dst, fmt.Errorf("objmodel: cannot serialize a never-bound Ref")
	}
	return binary.AppendUvarint(dst, uint64(oid)), nil
}

// UnmarshalOBI parses a ref's uvarint into the unbound state (OID only).
// The replication materializer binds it to a local object or proxy-out.
func (r *Ref) UnmarshalOBI(src []byte) (int, error) {
	d := codec.NewDecoder(src)
	v, err := d.ReadUvarint()
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	l, c := r.setOID(OID(v))
	r.local = nil
	r.faulter = nil
	r.remote = nil
	r.mu.Unlock()
	l.add(c)
	return d.Offset(), nil
}

func (r *Ref) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	state := "unbound"
	switch {
	case r.local != nil:
		state = "resolved"
	case r.faulter != nil:
		state = "proxied"
	}
	return fmt.Sprintf("ref{%v %s %s}", r.oid, state, r.mode)
}
