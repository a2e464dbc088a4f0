package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/stats"
)

// ObjectProfile is the per-OID replication profile: how often an object
// faulted here, how much a demand for it cost, and how invocations
// through references to it split between LMI and RMI. It is the
// measurable form of the paper's run-time mode decision — the numbers
// the Advisor's cost model wants instead of a bare call counter.
type ObjectProfile struct {
	OID uint64

	// Client side: faults raised at this site for the object.
	Faults uint64
	// HeapHits counts faults answered from the local heap — the object
	// had already arrived in someone else's batch or cluster, so the
	// demand cost nothing. HeapHits/Faults is the batch/cluster hit rate.
	HeapHits uint64
	// RemoteDemands counts fetches that crossed the wire (initial demands
	// plus refreshes).
	RemoteDemands uint64
	// ClusterDemands counts remote demands answered with a clustered
	// payload.
	ClusterDemands uint64
	// DemandObjects totals the objects materialized across the remote
	// demands — the demand depth (DemandObjects/RemoteDemands is the
	// average incremental batch actually shipped).
	DemandObjects uint64
	// DemandBytes totals the payload state bytes across remote demands.
	DemandBytes uint64
	// FaultNS totals the wall time of remote demands, so
	// FaultNS/RemoteDemands is the observed replica fault cost.
	FaultNS int64

	// Invocations through refs naming this object, split by mechanism.
	LMICalls uint64
	RMICalls uint64

	// Provider side: demands this site served for the object.
	Serves       uint64
	ServeObjects uint64
	ServeBytes   uint64

	// Update traffic.
	PutsShipped uint64
	PutsApplied uint64
}

// Heat is the eviction and ranking key: total protocol activity.
func (p ObjectProfile) Heat() uint64 {
	return p.Faults + p.RemoteDemands + p.LMICalls + p.RMICalls +
		p.Serves + p.PutsShipped + p.PutsApplied
}

// AvgFaultNS is the observed cost of one remote demand (0 if none).
func (p ObjectProfile) AvgFaultNS() int64 {
	if p.RemoteDemands == 0 {
		return 0
	}
	return p.FaultNS / int64(p.RemoteDemands)
}

// BytesPerDemand is the average payload size of one remote demand.
func (p ObjectProfile) BytesPerDemand() uint64 {
	if p.RemoteDemands == 0 {
		return 0
	}
	return p.DemandBytes / p.RemoteDemands
}

// HeapHitRate is the fraction of faults the local heap absorbed — how
// well batch/cluster prefetching worked for this object.
func (p ObjectProfile) HeapHitRate() float64 {
	if p.Faults == 0 {
		return 0
	}
	return float64(p.HeapHits) / float64(p.Faults)
}

// ProfileSnapshot is the exported top-K view of a site's profiler.
type ProfileSnapshot struct {
	Site      string
	TakenAtNS int64
	// Tracked is how many objects the profiler currently holds; Evicted
	// how many cold profiles were discarded to stay bounded.
	Tracked uint64
	Evicted uint64
	// Objects are the hottest profiles, heat-descending (OID ascending on
	// ties, so snapshots are deterministic).
	Objects []ObjectProfile
}

func init() {
	codec.MustRegister("obiwan.telemetry.ObjectProfile", ObjectProfile{})
	codec.MustRegister("obiwan.telemetry.ProfileSnapshot", ProfileSnapshot{})
}

// Get returns the profile for oid, if the snapshot holds one.
func (s *ProfileSnapshot) Get(oid uint64) (ObjectProfile, bool) {
	for _, p := range s.Objects {
		if p.OID == oid {
			return p, true
		}
	}
	return ObjectProfile{}, false
}

// Format renders the snapshot as an aligned hot-object table (the
// obiwan-admin top output).
func (s *ProfileSnapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hot objects at site %q (%d tracked, %d evicted)\n\n", s.Site, s.Tracked, s.Evicted)
	if len(s.Objects) == 0 {
		b.WriteString("(no profiled objects)\n")
		return b.String()
	}
	t := stats.NewTable("oid", "heat", "faults", "hit%", "demands", "objs", "bytes", "avg_fault", "lmi", "rmi", "serves")
	for _, p := range s.Objects {
		t.AddRow(
			fmt.Sprintf("%#x", p.OID), p.Heat(), p.Faults,
			fmt.Sprintf("%.0f", 100*p.HeapHitRate()),
			p.RemoteDemands, p.DemandObjects, p.DemandBytes,
			time.Duration(p.AvgFaultNS()).Round(time.Microsecond),
			p.LMICalls, p.RMICalls, p.Serves,
		)
	}
	_, _ = t.WriteTo(&b)
	return b.String()
}

// defaultProfileCapacity bounds the number of tracked objects.
const defaultProfileCapacity = 256

// Profiler aggregates per-OID replication behaviour into bounded top-K
// hot-object profiles. A nil *Profiler (telemetry disabled) no-ops on
// every method, matching the Hub's nil-receiver fast path. Safe for
// concurrent use.
//
// LMIs are pulled, not pushed: refs count them into their site's log, and
// every method drains that log before it reads or evicts by heat.
type Profiler struct {
	mu       sync.Mutex
	lmis     LMISource           // nil: nothing to pull
	fold     func(oid, n uint64) // Drain's argument, made once so a drain allocates nothing
	capacity int
	objects  map[uint64]*ObjectProfile
	// cold orders the tracked profiles for eviction: once the table is
	// full it is a min-heap by (heat ascending, OID descending) over the
	// heat each entry had when the heap last looked at it. Heat only
	// grows, so a stored heat is a lower bound of the true one and the
	// Record* methods never have to touch the heap.
	cold    []coldEntry
	evicted uint64

	// Site-wide demand cost, survives per-object eviction: the Advisor's
	// fallback estimate for objects never fetched here before.
	totFaultNS int64
	totDemands uint64
}

// NewProfiler builds a profiler tracking at most capacity objects
// (default 256 when capacity <= 0).
func NewProfiler(capacity int) *Profiler {
	if capacity <= 0 {
		capacity = defaultProfileCapacity
	}
	p := &Profiler{
		capacity: capacity,
		objects:  make(map[uint64]*ObjectProfile, capacity),
		cold:     make([]coldEntry, 0, capacity),
	}
	p.fold = func(oid, n uint64) { p.get(oid).LMICalls += n }
	return p
}

// LMISource is a site's log of LMIs not yet counted (objmodel.InvokeLog).
// Drain hands add each pending count, in the order it joined, and empties
// the log.
type LMISource interface {
	Drain(add func(oid, n uint64))
}

// PullFrom makes the profiler drain src before it reads or evicts by heat.
// A site's engine sets it once, at start.
func (p *Profiler) PullFrom(src LMISource) {
	p.mu.Lock()
	p.lmis = src
	p.mu.Unlock()
}

// DrainLMIs folds the LMIs waiting in the log into their profiles.
func (p *Profiler) DrainLMIs() {
	p.lock()
	p.mu.Unlock()
}

// lock takes p.mu and drains the log.
func (p *Profiler) lock() {
	p.mu.Lock()
	if p.lmis != nil {
		p.lmis.Drain(p.fold)
	}
}

// coldEntry is one slot of the eviction heap: a tracked profile and the
// heat it had when the heap last refreshed it.
type coldEntry struct {
	heat uint64
	o    *ObjectProfile
}

// colder orders the eviction heap: lowest heat first, highest OID first
// on ties, so the keep-set is deterministic.
func (a coldEntry) colder(b coldEntry) bool {
	return a.heat < b.heat || (a.heat == b.heat && a.o.OID > b.o.OID)
}

// siftDown restores the heap order below slot i after its key grew.
func (p *Profiler) siftDown(i int) {
	h := p.cold
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].colder(h[c]) {
			c++
		}
		if !h[c].colder(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// get returns (creating, evicting as needed) the profile for oid.
// Callers hold p.mu.
func (p *Profiler) get(oid uint64) *ObjectProfile {
	if o, ok := p.objects[oid]; ok {
		return o
	}
	if len(p.cold) < p.capacity {
		o := &ObjectProfile{OID: oid}
		p.objects[oid] = o
		p.cold = append(p.cold, coldEntry{o: o})
		if len(p.cold) == p.capacity {
			// Nothing is evicted before the table fills, so the heap is
			// built once, here (stored heats all 0: a lower bound).
			for i := len(p.cold)/2 - 1; i >= 0; i-- {
				p.siftDown(i)
			}
		}
		return o
	}
	// Evict the coldest tracked object (lowest heat; highest OID on ties).
	// The top's stored heat may be stale: refresh it and let it sink until
	// the top's stored heat is its true one. Every other entry's true key
	// is at least its stored key, which is at least the top's, so that top
	// is the victim a scan of the whole table would pick.
	top := &p.cold[0]
	for top.heat != top.o.Heat() {
		top.heat = top.o.Heat()
		p.siftDown(0)
	}
	o := top.o
	delete(p.objects, o.OID)
	p.evicted++
	*o = ObjectProfile{OID: oid} // the victim's record serves the newcomer
	p.objects[oid] = o
	top.heat = 0
	p.siftDown(0)
	return o
}

// update applies f to oid's profile under p.mu (a nil profiler does
// nothing).
func (p *Profiler) update(oid uint64, f func(o *ObjectProfile)) {
	if p == nil {
		return
	}
	p.lock()
	f(p.get(oid))
	p.mu.Unlock()
}

// RecordFault records one resolved object fault: fromHeap marks faults
// absorbed by the local heap; for remote demands, objects/bytes size the
// payload and elapsed is the demand's wall time.
func (p *Profiler) RecordFault(oid uint64, fromHeap, clustered bool, objects, bytes int, elapsed time.Duration) {
	p.update(oid, func(o *ObjectProfile) {
		o.Faults++
		if fromHeap {
			o.HeapHits++
		} else {
			p.demand(o, clustered, objects, bytes, elapsed)
		}
	})
}

// RecordRefresh records one replica refresh — a remote demand without a
// fault (the replica was already here and re-fetched its state).
func (p *Profiler) RecordRefresh(oid uint64, clustered bool, objects, bytes int, elapsed time.Duration) {
	p.update(oid, func(o *ObjectProfile) { p.demand(o, clustered, objects, bytes, elapsed) })
}

// demand counts one remote demand for o. Callers hold p.mu.
func (p *Profiler) demand(o *ObjectProfile, clustered bool, objects, bytes int, elapsed time.Duration) {
	o.RemoteDemands++
	if clustered {
		o.ClusterDemands++
	}
	o.DemandObjects += uint64(objects)
	o.DemandBytes += uint64(bytes)
	o.FaultNS += int64(elapsed)
	p.totFaultNS += int64(elapsed)
	p.totDemands++
}

// RecordServe records one demand this site answered as provider.
func (p *Profiler) RecordServe(oid uint64, objects, bytes int) {
	p.update(oid, func(o *ObjectProfile) {
		o.Serves++
		o.ServeObjects += uint64(objects)
		o.ServeBytes += uint64(bytes)
	})
}

// RecordInvoke records one invocation through a ref naming oid: LMI when
// it ran on a local copy, RMI when it was master-directed. Refs push only
// their RMIs; the profiler pulls their LMIs from its invoke log.
func (p *Profiler) RecordInvoke(oid uint64, remote bool) {
	p.update(oid, func(o *ObjectProfile) {
		if remote {
			o.RMICalls++
		} else {
			o.LMICalls++
		}
	})
}

// RecordPutShipped records one update shipped to oid's master.
func (p *Profiler) RecordPutShipped(oid uint64) {
	p.update(oid, func(o *ObjectProfile) { o.PutsShipped++ })
}

// RecordPutApplied records one update applied at this site as master.
func (p *Profiler) RecordPutApplied(oid uint64) {
	p.update(oid, func(o *ObjectProfile) { o.PutsApplied++ })
}

// FaultCost returns the observed cost of one remote demand for oid: the
// object's own average when this site has fetched it before, otherwise
// the site-wide average demand cost. ok is false (and the Advisor falls
// back to its static heuristic) when nothing was ever measured — or when
// the profiler is nil.
func (p *Profiler) FaultCost(oid uint64) (cost time.Duration, ok bool) {
	if p == nil {
		return 0, false
	}
	p.lock()
	defer p.mu.Unlock()
	if o, have := p.objects[oid]; have && o.RemoteDemands > 0 {
		return time.Duration(o.FaultNS / int64(o.RemoteDemands)), true
	}
	if p.totDemands > 0 {
		return time.Duration(p.totFaultNS / int64(p.totDemands)), true
	}
	return 0, false
}

// Len returns how many objects are currently tracked.
func (p *Profiler) Len() int {
	if p == nil {
		return 0
	}
	p.lock()
	defer p.mu.Unlock()
	return len(p.objects)
}

// Snapshot exports the topK hottest profiles (all tracked when topK <= 0),
// heat-descending, OID-ascending on equal heat.
func (p *Profiler) Snapshot(site string, nowNS int64, topK int) *ProfileSnapshot {
	out := &ProfileSnapshot{Site: site, TakenAtNS: nowNS}
	if p == nil {
		return out
	}
	p.lock()
	out.Tracked = uint64(len(p.objects))
	out.Evicted = p.evicted
	out.Objects = make([]ObjectProfile, 0, len(p.objects))
	for _, o := range p.objects {
		out.Objects = append(out.Objects, *o)
	}
	p.mu.Unlock()
	sort.Slice(out.Objects, func(i, j int) bool {
		hi, hj := out.Objects[i].Heat(), out.Objects[j].Heat()
		if hi != hj {
			return hi > hj
		}
		return out.Objects[i].OID < out.Objects[j].OID
	})
	if topK > 0 && len(out.Objects) > topK {
		out.Objects = out.Objects[:topK]
	}
	return out
}
