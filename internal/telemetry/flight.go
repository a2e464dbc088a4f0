package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"obiwan/internal/codec"
)

// FlightEvent is one entry in a site's flight recorder: a recent
// protocol, WAL, or retry event kept for post-mortem context. Events are
// cheap, flat records — no pointers into live state — so a dump is safe
// to ship over RMI.
type FlightEvent struct {
	// Seq is the event's position in the recorder's total order (0-based,
	// never reused; survives ring eviction).
	Seq  uint64
	AtNS int64
	// Kind names the event source and step: "repl.fault-resolved",
	// "rmi.retry", "repl.unavailable", "site.recovery", "wal.compact", ...
	Kind string
	// OID is the subject object, when the event concerns one.
	OID uint64
	// TraceID/SpanID tie the event to the causal trace of the operation
	// that produced it (0 when untraced).
	TraceID uint64
	SpanID  uint64
	// Detail is a short free-form annotation.
	Detail string
	// Err is the error text for failure events.
	Err string
}

func (e FlightEvent) String() string {
	s := fmt.Sprintf("[%d] %s", e.Seq, e.Kind)
	if e.OID != 0 {
		s += fmt.Sprintf(" oid=%#x", e.OID)
	}
	if e.SpanID != 0 {
		s += fmt.Sprintf(" trace=%x span=%x", e.TraceID, e.SpanID)
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	if e.Err != "" {
		s += " err=" + e.Err
	}
	return s
}

// FlightDump is a snapshot of the recorder taken at a moment of interest
// — an ErrUnavailable exhaustion, a crash recovery, or an explicit fetch.
type FlightDump struct {
	Site   string
	Reason string
	// Seq numbers stored dumps per site (1-based); 0 marks a live,
	// unstored snapshot.
	Seq       uint64
	TakenAtNS int64
	// Total counts events ever recorded; Dropped those evicted before
	// this dump was taken.
	Total   uint64
	Dropped uint64
	// Events are the ring's contents, oldest first.
	Events []FlightEvent
}

func init() {
	codec.MustRegister("obiwan.telemetry.FlightEvent", FlightEvent{})
	codec.MustRegister("obiwan.telemetry.FlightDump", FlightDump{})
}

// Format renders the dump as the obiwan-admin flight listing.
func (d *FlightDump) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder dump for site %q\n", d.Site)
	fmt.Fprintf(&b, "reason: %s\n", d.Reason)
	fmt.Fprintf(&b, "taken_at: %s  events: %d/%d recorded (%d dropped)\n\n",
		time.Unix(0, d.TakenAtNS).UTC().Format(time.RFC3339Nano), len(d.Events), d.Total, d.Dropped)
	if len(d.Events) == 0 {
		b.WriteString("(empty)\n")
		return b.String()
	}
	base := d.Events[0].AtNS
	for _, e := range d.Events {
		fmt.Fprintf(&b, "  +%-12s %s\n", time.Duration(e.AtNS-base).Round(time.Microsecond), e)
	}
	return b.String()
}

// Contains reports whether any event in the dump carries the given span
// id — how tests (and operators) tie a dump to a failed call.
func (d *FlightDump) Contains(spanID uint64) bool {
	for _, e := range d.Events {
		if e.SpanID == spanID {
			return true
		}
	}
	return false
}

// defaultFlightCapacity bounds the event ring.
const defaultFlightCapacity = 512

// flightDumpKeep bounds how many dumps the recorder retains.
const flightDumpKeep = 4

// FlightRecorder keeps a bounded ring of recent events plus the last few
// dumps taken from it. A nil *FlightRecorder no-ops on every method,
// matching the telemetry fast-path contract. Safe for concurrent use.
type FlightRecorder struct {
	site string

	mu      sync.Mutex
	ring    []flightSlot
	next    int
	total   uint64 // events ever recorded; all but the last len(ring) are gone
	dumpSeq uint64
	dumps   []*FlightDump
}

// flightSlot is a FlightEvent as the ring holds it. Seq is implied by the
// position (the ring is contiguous in Seq). An event recorded with counts
// holds the numbers of its Detail, "objects=N bytes=M", which is rendered
// when the ring is read; objects is -1 on an event recorded with text.
// 96 bytes: 512 of them fill the six pages 512 FlightEvents rounded up to.
type flightSlot struct {
	atNS            int64
	kind            string
	oid             uint64
	traceID, spanID uint64
	detail, err     string
	objects, bytes  int
}

// newFlightRecorder builds a recorder with the given ring capacity
// (default 512 when capacity <= 0).
func newFlightRecorder(site string, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{site: site, ring: make([]flightSlot, 0, capacity)}
}

// Record appends ev to the ring, evicting the oldest event when full.
// The recorder stamps Seq; AtNS is the emitter's reading of its clock.
func (f *FlightRecorder) Record(ev FlightEvent) {
	f.record(flightSlot{
		atNS: ev.AtNS, kind: ev.Kind, oid: ev.OID, traceID: ev.TraceID, spanID: ev.SpanID,
		detail: ev.Detail, err: ev.Err, objects: -1,
	})
}

// RecordCounts appends an untraced event about oid at the reading at,
// whose Detail reads "objects=<objects> bytes=<bytes>", without formatting
// it: recording builds no string. kind is kept as given, so pass a
// constant.
func (f *FlightRecorder) RecordCounts(kind string, oid uint64, objects, bytes int, at time.Time) {
	if f == nil {
		return
	}
	f.record(flightSlot{atNS: at.UnixNano(), kind: kind, oid: oid, objects: objects, bytes: bytes})
}

func (f *FlightRecorder) record(slot flightSlot) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.total++
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, slot)
	} else {
		f.ring[f.next] = slot
		f.next = (f.next + 1) % len(f.ring)
	}
	f.mu.Unlock()
}

// snapshotLocked renders the ring as events, oldest first. Callers hold
// f.mu.
func (f *FlightRecorder) snapshotLocked() []FlightEvent {
	out := make([]FlightEvent, 0, len(f.ring))
	for _, part := range [2][]flightSlot{f.ring[f.next:], f.ring[:f.next]} {
		for _, s := range part {
			if s.objects >= 0 {
				s.detail = "objects=" + strconv.Itoa(s.objects) + " bytes=" + strconv.Itoa(s.bytes)
			}
			out = append(out, FlightEvent{
				Seq: f.total - uint64(len(f.ring)-len(out)), AtNS: s.atNS, Kind: s.kind, OID: s.oid,
				TraceID: s.traceID, SpanID: s.spanID, Detail: s.detail, Err: s.err,
			})
		}
	}
	return out
}

// Snapshot returns the ring's current contents, oldest first.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshotLocked()
}

// Dump snapshots the ring at the reading at into a stored dump (retaining
// the last few) and returns it — the automatic path on ErrUnavailable
// exhaustion and crash recovery. Nil-safe.
func (f *FlightRecorder) Dump(reason string, at time.Time) *FlightDump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	f.dumpSeq++
	d := &FlightDump{
		Site: f.site, Reason: reason, Seq: f.dumpSeq, TakenAtNS: at.UnixNano(),
		Total: f.total, Dropped: f.total - uint64(len(f.ring)), Events: f.snapshotLocked(),
	}
	f.dumps = append(f.dumps, d)
	if len(f.dumps) > flightDumpKeep {
		f.dumps = append(f.dumps[:0], f.dumps[len(f.dumps)-flightDumpKeep:]...)
	}
	f.mu.Unlock()
	return d
}

// Current builds an unstored snapshot dump (Seq 0) at the reading at —
// what the admin Flight endpoint serves when nothing has been dumped yet.
func (f *FlightRecorder) Current(reason string, at time.Time) *FlightDump {
	if f == nil {
		return &FlightDump{Reason: reason}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return &FlightDump{
		Site: f.site, Reason: reason, TakenAtNS: at.UnixNano(),
		Total: f.total, Dropped: f.total - uint64(len(f.ring)), Events: f.snapshotLocked(),
	}
}

// LastDump returns the most recent stored dump, if any.
func (f *FlightRecorder) LastDump() (*FlightDump, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.dumps) == 0 {
		return nil, false
	}
	return f.dumps[len(f.dumps)-1], true
}
