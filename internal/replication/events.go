package replication

import (
	"fmt"
	"time"

	"obiwan/internal/objmodel"
)

// EventKind identifies a protocol step in the replication trace.
type EventKind uint8

const (
	// EventFaultResolved: an object fault completed at this site.
	EventFaultResolved EventKind = iota + 1
	// EventPayloadAssembled: this site (as master/provider) built a
	// replica payload.
	EventPayloadAssembled
	// EventPayloadMaterialized: this site installed a replica payload.
	EventPayloadMaterialized
	// EventPutApplied: this site (as master) installed an inbound update;
	// a retry answered from the exactly-once guard installs nothing and
	// emits nothing.
	EventPutApplied
	// EventPutShipped: this site (as replica holder) shipped an update.
	EventPutShipped
	// EventReplicaRefreshed: this site re-fetched a replica's state from
	// its provider (a remote demand without an object fault).
	EventReplicaRefreshed
)

// flightKinds names each kind as the flight recorder logs it; String is
// the same name without the "repl." prefix. Static, so an event is logged
// without building its name.
var flightKinds = [...]string{
	EventFaultResolved:       "repl.fault-resolved",
	EventPayloadAssembled:    "repl.payload-assembled",
	EventPayloadMaterialized: "repl.payload-materialized",
	EventPutApplied:          "repl.put-applied",
	EventPutShipped:          "repl.put-shipped",
	EventReplicaRefreshed:    "repl.replica-refreshed",
}

func (k EventKind) flightKind() string {
	if int(k) < len(flightKinds) && flightKinds[k] != "" {
		return flightKinds[k]
	}
	return fmt.Sprintf("repl.event(%d)", uint8(k))
}

func (k EventKind) String() string { return k.flightKind()[len("repl."):] }

// Event is one step in the replication protocol trace. Fields are filled
// per kind; zero values mean "not applicable".
type Event struct {
	Kind EventKind
	// OID is the subject object (fault target, payload root, put target).
	OID objmodel.OID
	// Objects counts the objects in a payload.
	Objects int
	// Bytes totals the serialized object state carried by a payload.
	Bytes int
	// Frontier counts the frontier descriptors in a payload.
	Frontier int
	// Clustered marks clustered payloads.
	Clustered bool
	// FromHeap marks faults served locally without a remote demand.
	FromHeap bool
	// Elapsed is the wall time of the step, where measured.
	Elapsed time.Duration
	// Requester is the demanding site for assembled payloads.
	Requester string
	// Version is the resulting version for put events.
	Version uint64
	// Base and Checksum are an installed put's exactly-once guard key:
	// the replica version it was based on and its state's checksum.
	Base, Checksum uint64
}

func (e Event) String() string {
	return fmt.Sprintf("%s oid=%v objects=%d bytes=%d frontier=%d clustered=%v fromHeap=%v v=%d %v",
		e.Kind, e.OID, e.Objects, e.Bytes, e.Frontier, e.Clustered, e.FromHeap, e.Version, e.Elapsed.Round(time.Microsecond))
}

// EventObserver receives protocol events. It is called synchronously on
// the protocol path: keep it fast, hand off anything heavy.
type EventObserver func(Event)

// obsEntry is one fan-out registration.
type obsEntry struct {
	id int
	fn EventObserver
}

// AddEventObserver registers fn alongside any existing observers, so a
// telemetry exporter, the bench harness, and a test can all watch the
// same engine. The returned function removes fn; calling it more than
// once is harmless. Observers run synchronously in registration order.
func (e *Engine) AddEventObserver(fn EventObserver) (remove func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observerSeq++
	id := e.observerSeq
	// The slice is copied on every change and never written in place, so
	// emit can walk the one it read without holding the lock or copying.
	e.observers = append(e.observers[:len(e.observers):len(e.observers)], obsEntry{id: id, fn: fn})
	return func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		for i, o := range e.observers {
			if o.id == id {
				kept := append([]obsEntry(nil), e.observers[:i]...)
				e.observers = append(kept, e.observers[i+1:]...)
				return
			}
		}
	}
}

// emit folds an event into the metrics registry and delivers it to every
// observer. at is the emitter's reading of the runtime's clock, which the
// flight recorder stamps the event with (zero with telemetry off).
// Observer calls happen outside the engine lock.
func (e *Engine) emit(ev Event, at time.Time) {
	e.recordEventMetrics(ev, at)
	e.mu.Lock()
	observers := e.observers
	e.mu.Unlock()
	for _, o := range observers {
		o.fn(ev)
	}
}

// recordEventMetrics maps protocol events onto the repl.* instruments,
// the per-object profiler, and the flight recorder. Every instrument,
// the profiler, and the recorder are nil — and every call below a no-op
// — when telemetry is disabled.
func (e *Engine) recordEventMetrics(ev Event, at time.Time) {
	switch ev.Kind {
	case EventFaultResolved:
		e.met.faults.Inc()
		if ev.FromHeap {
			e.met.faultsHeap.Inc()
		} else {
			e.met.faultLatency.ObserveDuration(ev.Elapsed)
		}
		e.prof.RecordFault(uint64(ev.OID), ev.FromHeap, ev.Clustered, ev.Objects, ev.Bytes, ev.Elapsed)
	case EventPayloadAssembled:
		e.met.assembled.Inc()
		e.met.payloadObjs.Observe(int64(ev.Objects))
		if ev.Clustered {
			e.met.clustered.Inc()
		} else {
			e.met.batch.Inc()
		}
		e.prof.RecordServe(uint64(ev.OID), ev.Objects, ev.Bytes)
	case EventPayloadMaterialized:
		e.met.materialized.Inc()
	case EventReplicaRefreshed:
		e.met.refreshes.Inc()
		e.prof.RecordRefresh(uint64(ev.OID), ev.Clustered, ev.Objects, ev.Bytes, ev.Elapsed)
	case EventPutShipped:
		e.met.putsShipped.Inc()
		e.prof.RecordPutShipped(uint64(ev.OID))
	case EventPutApplied:
		e.met.putsApplied.Inc()
		e.prof.RecordPutApplied(uint64(ev.OID))
	}
	e.flight.RecordCounts(ev.Kind.flightKind(), uint64(ev.OID), ev.Objects, ev.Bytes, at)
}
