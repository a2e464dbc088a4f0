package objmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// InvokeObserver receives one notification per invocation through a Ref:
// the target's identity and whether the call went remote (RMI) or ran on
// a local copy (LMI). The replication engine installs one to feed the
// per-object profiler; objmodel stays telemetry-agnostic.
type InvokeObserver func(oid OID, remote bool)

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
	mu       sync.Mutex
	oid      OID
	local    any
	faulter  Faulter
	remote   RemoteInvoker
	mode     InvocationMode
	observer InvokeObserver

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
	defer r.mu.Unlock()
	r.local = target
	r.oid = oid
	r.faulter = nil
}

// BindFault points the slot at a proxy-out.
func (r *Ref) BindFault(oid OID, f Faulter, remote RemoteInvoker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.oid = oid
	r.faulter = f
	if remote != nil {
		r.remote = remote
	}
	r.local = nil
}

// SetRemote installs the remote invoker used by ModeRemote.
func (r *Ref) SetRemote(remote RemoteInvoker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remote = remote
}

// SetInvokeObserver installs (or clears, with nil) the per-invocation
// observer. The unobserved fast path costs one nil check inside the
// mutex hold Invoke already takes.
func (r *Ref) SetInvokeObserver(fn InvokeObserver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observer = fn
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
	if r.local != nil {
		obj := r.local
		r.mu.Unlock()
		return obj, nil
	}
	f := r.faulter
	r.mu.Unlock()
	if f == nil {
		return nil, ErrUnboundRef
	}

	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	// Another goroutine may have resolved while we waited.
	r.mu.Lock()
	if r.local != nil {
		obj := r.local
		r.mu.Unlock()
		return obj, nil
	}
	f = r.faulter
	r.mu.Unlock()
	if f == nil {
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
// cache. The observer hears an LMI once the target is local, so a failed
// fault is not counted.
func (r *Ref) Invoke(method string, args ...any) ([]any, error) {
	r.mu.Lock()
	r.calls++
	n, mode, local, remote, faulter, observer, oid := r.calls, r.mode, r.local, r.remote, r.faulter, r.observer, r.oid
	if local != nil && (mode != ModeRemote || remote == nil) {
		m := r.method
		var err error
		if !m.Fits(local, method) {
			if m, err = invoke.Lookup(local, method); err == nil {
				r.method = m
			}
		}
		r.mu.Unlock()
		if observer != nil {
			observer(oid, false)
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
		if observer != nil {
			observer(oid, true)
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
	if observer != nil {
		observer(oid, false)
	}
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
	r.oid = OID(v)
	r.local = nil
	r.faulter = nil
	r.remote = nil
	r.mu.Unlock()
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
