package replication

import (
	"fmt"
	"time"

	"obiwan/internal/heap"
	"obiwan/internal/invoke"
	"obiwan/internal/objmodel"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// ProxyIn is the master-side half of a proxy pair: an RMI-exported object
// standing for one master object (or, in clustered mode, a cluster rooted
// at it). It implements the paper's IProvideRemote interface — get and put
// invoked remotely — plus Invoke, the path that lets a reference holder
// call the master directly over RMI instead of replicating.
type ProxyIn struct {
	eng   *Engine
	entry *heap.Entry
}

// Get assembles and returns the replica payload for this object per spec.
// The leading SpanContext is never sent by callers: the RMI skeleton
// injects the serve span's context there (zero when the call was
// untraced), which parents the assembly under the demanding site's fault.
// Get names no requester; Dispatch, which serves every remote demand, hands
// the calling site's address to the consistency bookkeeping (get).
func (p *ProxyIn) Get(sc telemetry.SpanContext, spec *GetSpec) (*Payload, error) {
	return p.get(sc, time.Time{}, spec, "")
}

// get is Get for requester, the demanding site, begun at the serve span's
// reading at (rmi.Dispatcher).
func (p *ProxyIn) get(sc telemetry.SpanContext, at time.Time, spec *GetSpec, requester transport.Addr) (*Payload, error) {
	if err := p.eng.gateServe(p.entry); err != nil {
		return nil, err
	}
	if spec == nil {
		s := DefaultSpec
		spec = &s
	}
	payload, err := p.eng.assemble(sc, at, p.entry, *spec, string(requester))
	if err != nil {
		return nil, fmt.Errorf("proxy-in %v: %w", p.entry.OID, err)
	}
	return payload, nil
}

// Put applies a replica's state to the master object. The SpanContext is
// skeleton-injected (see Get).
func (p *ProxyIn) Put(sc telemetry.SpanContext, req *PutRequest) (*PutReply, error) {
	return p.putOne(sc, time.Time{}, req)
}

// putOne is Put begun at the serve span's reading at (rmi.Dispatcher).
func (p *ProxyIn) putOne(sc telemetry.SpanContext, at time.Time, req *PutRequest) (*PutReply, error) {
	if req == nil {
		return nil, fmt.Errorf("proxy-in %v: nil put request", p.entry.OID)
	}
	if objmodel.OID(req.OID) != p.entry.OID {
		return nil, fmt.Errorf("proxy-in %v: put addressed to %d", p.entry.OID, req.OID)
	}
	return p.put(sc, at, req, true)
}

// put applies one inbound put, single or cluster member: agreed through
// the group log when this proxy-in serves a group-mastered object, applied
// directly otherwise. adopt says whether the master may keep req.State's
// bytes: yes for a single put, whose call frame is mostly that state, and
// for a cluster member, whose frame feeds the cluster's masters, which live
// together at this site as the cluster's replicas do at the sender's
// (installReplica). The borrowing decoder clips each state's capacity, so
// no member can write into a neighbour's bytes.
func (p *ProxyIn) put(sc telemetry.SpanContext, at time.Time, req *PutRequest, adopt bool) (*PutReply, error) {
	if g := p.eng.masterGate(); g != nil && p.entry.Role == heap.Master {
		return g.RoutePut(sc, req)
	}
	return p.eng.applyPut(sc, at, req, adopt)
}

// PutCluster applies a whole-cluster update. Members must belong to the
// cluster this proxy-in serves (they were shipped through it). The reply is
// the new version of each member, in request order. The SpanContext is
// skeleton-injected (see Get).
func (p *ProxyIn) PutCluster(sc telemetry.SpanContext, req *ClusterPutRequest) ([]any, error) {
	if req == nil || len(req.Members) == 0 {
		return nil, fmt.Errorf("proxy-in %v: empty cluster put", p.entry.OID)
	}
	versions := make([]any, 0, len(req.Members))
	for i := range req.Members {
		reply, err := p.put(sc, time.Time{}, &req.Members[i], true)
		if err != nil {
			return nil, fmt.Errorf("cluster member %d (oid %v): %w", i, objmodel.OID(req.Members[i].OID), err)
		}
		versions = append(versions, reply.NewVersion)
	}
	return versions, nil
}

// Invoke runs a method on the master object — the RMI invocation mode. The
// mutation state of the master is the application's concern, exactly as in
// the paper. On a grouped site only the leaseholder serves invokes: a
// follower's copy may trail the agreed log.
func (p *ProxyIn) Invoke(method string, args []any) ([]any, error) {
	if err := p.eng.gateServe(p.entry); err != nil {
		return nil, err
	}
	return invoke.Call(p.entry.Obj, method, args)
}

// Version returns the master object's current version, letting replicas
// check staleness cheaply.
func (p *ProxyIn) Version() uint64 {
	return p.entry.Version()
}

var (
	_ rmi.Dispatcher = (*ProxyIn)(nil)
	_ rmi.Idempotent = (*ProxyIn)(nil)
)

// Idempotent implements rmi.Idempotent: a demand (get) and a version read
// change nothing at the master, so a retried one runs again and the dedupe
// table never keeps their replies. A put and every call of the master's own
// methods stay exactly-once.
func (p *ProxyIn) Idempotent(method string) bool { return method == "get" || method == "version" }

// Dispatch implements rmi.Dispatcher: the proxy-in's skeleton, written out,
// so a demand, put or invoke reaches its method without reflection. The
// proxy-in's own methods travel under names no exported Go method can have
// (get, put, putCluster, version) and answer as a reflective call of Get,
// Put, PutCluster and Version would, their errors numbered counting the
// span context Dispatch supplies. Every other name is a method of the
// master object, called through Invoke with the arguments as sent, so an
// application call is one frame and names its own method.
func (p *ProxyIn) Dispatch(sc telemetry.SpanContext, at time.Time, caller transport.Addr, method string, args []any) ([]any, error) {
	switch method {
	case "get":
		spec, err := invoke.Args1[*GetSpec](method, args, 1)
		if err != nil {
			return nil, err
		}
		payload, err := p.get(sc, at, spec, caller)
		return invoke.Result(method, payload, err)
	case "put":
		req, err := invoke.Args1[*PutRequest](method, args, 1)
		if err != nil {
			return nil, err
		}
		reply, err := p.putOne(sc, at, req)
		return invoke.Result(method, reply, err)
	case "putCluster":
		req, err := invoke.Args1[*ClusterPutRequest](method, args, 1)
		if err != nil {
			return nil, err
		}
		versions, err := p.PutCluster(sc, req)
		return invoke.Result(method, versions, err)
	case "version":
		if err := invoke.CheckArity(method, args, 0, 0); err != nil {
			return nil, err
		}
		return []any{p.Version()}, nil
	}
	return p.Invoke(method, args)
}

// ProxyOut is the client-side half of a proxy pair: it stands in for a not
// yet replicated object. A method invocation through a Ref backed by a
// ProxyOut is an object fault; ResolveFault performs the paper's demand
// protocol and the Ref splices the fresh replica in (updateMember), after
// which the ProxyOut is garbage.
type ProxyOut struct {
	eng      *Engine
	oid      objmodel.OID
	provider rmi.RemoteRef
	spec     GetSpec
}

var (
	_ objmodel.Faulter       = (*ProxyOut)(nil)
	_ objmodel.RemoteInvoker = (*ProxyOut)(nil)
	_ objmodel.AutoDecider   = (*ProxyOut)(nil)
)

// newProxyOut creates and accounts a proxy-out.
func (e *Engine) newProxyOut(oid objmodel.OID, provider rmi.RemoteRef, spec GetSpec) *ProxyOut {
	e.gc.ProxyOutCreated()
	return &ProxyOut{eng: e, oid: oid, provider: provider, spec: spec}
}

// Provider returns the proxy-in this proxy-out demands from.
func (p *ProxyOut) Provider() rmi.RemoteRef { return p.provider }

// OID returns the identity of the object this proxy-out stands for.
func (p *ProxyOut) OID() objmodel.OID { return p.oid }

// ResolveFault implements objmodel.Faulter: it satisfies the fault from the
// local heap when possible, otherwise demands the target (and its
// batch/cluster) from the provider. An implicit object fault is a causal
// origin, so it roots a new trace.
func (p *ProxyOut) ResolveFault() (any, objmodel.RemoteInvoker, error) {
	return p.demand(telemetry.SpanContext{}, p.spec)
}

// demand fetches the target with an explicit spec beneath sc (Replicate
// passes the caller's context so programmatic demands nest under
// application spans) and returns it with the master-directed invoker the
// Ref keeps.
func (p *ProxyOut) demand(sc telemetry.SpanContext, spec GetSpec) (any, objmodel.RemoteInvoker, error) {
	obj, via, err := p.eng.fetch(sc, EventFaultResolved, p.oid, p.provider, spec)
	if err != nil {
		return nil, nil, err
	}
	// The Ref will splice us out; we are garbage after this return.
	p.eng.gc.ProxyOutReclaimed()
	return obj, &remoteInvoker{eng: p.eng, provider: via, oid: p.oid}, nil
}

// RemoteInvoke implements objmodel.RemoteInvoker: it calls the master
// through the proxy-in without replicating.
func (p *ProxyOut) RemoteInvoke(method string, args []any) ([]any, error) {
	ri := remoteInvoker{eng: p.eng, provider: p.provider, oid: p.oid}
	return ri.RemoteInvoke(method, args)
}

// PreferLocal implements objmodel.AutoDecider by delegating to the
// engine's crossover model (default: replicate immediately).
func (p *ProxyOut) PreferLocal(calls uint64) bool {
	if c := p.eng.getCrossover(); c != nil {
		return c(p.provider.Addr, p.oid, calls)
	}
	return true
}

// remoteInvoker is the lightweight master-directed invoker a Ref keeps
// after resolution, so ModeRemote keeps working once the ProxyOut is gone.
// It carries the target's identity so RMI failures are attributable in
// the flight recorder.
type remoteInvoker struct {
	eng      *Engine
	provider rmi.RemoteRef
	oid      objmodel.OID
}

var _ objmodel.RemoteInvoker = (*remoteInvoker)(nil)

// RemoteInvoke calls method on the master under its own name. It follows
// leader redirects (a not-leader refusal guarantees the invoke did not
// run), but transient failures are NOT re-routed: an invoke is not
// idempotent.
func (ri *remoteInvoker) RemoteInvoke(method string, args []any) ([]any, error) {
	res, _, end, err := ri.eng.callFailover(nil, ri.eng.rt.Clock().Now(), ri.oid, ri.provider, ri.eng.rt.DefaultCallTimeout(), false, method, args...)
	if err != nil {
		return nil, ri.eng.failUnavailable("invoke", ri.oid, telemetry.SpanContext{}, err, end)
	}
	return res, nil
}
