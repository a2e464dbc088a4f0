package telemetry

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"obiwan/internal/objmodel"
)

// counter is the local target the pulled-count tests invoke.
type counter struct{ n int }

func (c *counter) Touch() { c.n++ }

// nopRemote answers every RMI with nothing.
type nopRemote struct{}

func (nopRemote) RemoteInvoke(string, []any) ([]any, error) { return nil, nil }

// pullModel is the pull as specified, fed into a reference profiler one
// RecordInvoke per call: each ref's LMIs since the last drain land
// together where the ref first joined the log, and LMIs a rebind takes out
// of a ref land where the rebind happened, under the OID they were counted
// against. Every profiler method drains first.
type pullModel struct {
	ref     *Profiler
	oids    []uint64 // per test ref: its OID
	pending []uint64 // per test ref: LMIs not yet drained
	queued  []bool
	log     []pullEntry
}

type pullEntry struct {
	ref    int // -1: a count taken out by a rebind
	oid, n uint64
}

func (m *pullModel) lmi(i int) {
	m.pending[i]++
	if !m.queued[i] {
		m.queued[i] = true
		m.log = append(m.log, pullEntry{ref: i})
	}
}

func (m *pullModel) rebind(i int, oid uint64) {
	if oid != m.oids[i] && m.pending[i] > 0 {
		m.log = append(m.log, pullEntry{ref: -1, oid: m.oids[i], n: m.pending[i]})
		m.pending[i] = 0
	}
	m.oids[i] = oid
}

func (m *pullModel) drain() {
	for _, e := range m.log {
		if e.ref >= 0 {
			e.oid, e.n = m.oids[e.ref], m.pending[e.ref]
			m.pending[e.ref], m.queued[e.ref] = 0, false
		}
		for range e.n {
			m.ref.RecordInvoke(e.oid, false)
		}
	}
	m.log = m.log[:0]
}

// TestPulledInvokeCountsMatchPush: LMIs counted in refs and pulled by the
// profiler give the profiles a push profiler gives when fed one
// RecordInvoke per call at the drain points. Refs (some sharing an OID)
// are invoked locally and remotely and rebound to other OIDs between
// faults, puts, serves and snapshots, on profilers small enough to evict;
// after every snapshot the tracked set, every profile and Evicted match.
// Where neither side evicted, the counts also match a profiler pushed one
// RecordInvoke the moment each call ran.
func TestPulledInvokeCountsMatchPush(t *testing.T) {
	const seeds, ops, nrefs = 40, 3000, 6
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(12)
		pool := 1 + rng.Intn(3*capacity)
		p := NewProfiler(capacity)
		log := objmodel.NewInvokeLog(p)
		p.PullFrom(log)
		m := &pullModel{
			ref:     NewProfiler(capacity),
			oids:    make([]uint64, nrefs),
			pending: make([]uint64, nrefs),
			queued:  make([]bool, nrefs),
		}
		push := NewProfiler(capacity)
		rs := make([]*objmodel.Ref, nrefs)
		for i := range rs {
			m.oids[i] = uint64(1 + rng.Intn(pool))
			rs[i] = objmodel.NewLocalRef(&counter{}, objmodel.OID(m.oids[i]))
			rs[i].SetRemote(nopRemote{})
			log.Observe(rs[i])
		}
		// fromRefs applies an event the refs already gave p to the model (after
		// its drain) and the push profiler; both gives it to p as well.
		fromRefs := func(f func(*Profiler)) {
			m.drain()
			f(m.ref)
			f(push)
		}
		both := func(f func(*Profiler)) {
			f(p)
			fromRefs(f)
		}
		for op := 0; op < ops; op++ {
			i, oid := rng.Intn(nrefs), uint64(1+rng.Intn(pool))
			switch k := rng.Intn(20); {
			case k < 10:
				if _, err := rs[i].Invoke("Touch"); err != nil {
					t.Fatal(err)
				}
				m.lmi(i)
				push.RecordInvoke(m.oids[i], false)
			case k < 11:
				rs[i].SetMode(objmodel.ModeRemote)
				if _, err := rs[i].Invoke("Touch"); err != nil {
					t.Fatal(err)
				}
				rs[i].SetMode(objmodel.ModeLocal)
				fromRefs(func(q *Profiler) { q.RecordInvoke(m.oids[i], true) })
			case k < 13:
				rs[i].BindLocal(&counter{}, objmodel.OID(oid))
				m.rebind(i, oid)
			case k < 15:
				both(func(q *Profiler) { q.RecordFault(oid, k == 13, false, 1, 64, time.Microsecond) })
			case k < 16:
				both(func(q *Profiler) { q.RecordPutApplied(oid) })
			case k < 17:
				both(func(q *Profiler) { q.RecordServe(oid, 1, 64) })
			default:
				got := p.Snapshot("s", 0, 0)
				m.drain()
				want := m.ref.Snapshot("s", 0, 0)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d (capacity %d): pulled\n%s\npushed at the drain points\n%s", seed, op, capacity, got.Format(), want.Format())
				}
				if pushed := push.Snapshot("s", 0, 0); got.Evicted == 0 && pushed.Evicted == 0 && !reflect.DeepEqual(got, pushed) {
					t.Fatalf("seed %d op %d: no eviction, yet pulled\n%s\npushed per call\n%s", seed, op, got.Format(), pushed.Format())
				}
			}
		}
	}
}
