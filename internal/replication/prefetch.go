package replication

import (
	"sync"

	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
)

// Prefetcher resolves object faults ahead of the application — the paper's
// footnote 3: "a perfect mechanism of pre-fetching in the background can
// completely eliminate the latency [of incremental replication]".
//
// Start a prefetcher over a site's engine, hand it references (typically
// the root just obtained from a Lookup), and it walks the frontier in the
// background, demanding objects with the references' own specs while the
// application works on what is already local. The walk is bounded by a
// hop budget so a prefetch cannot accidentally pull a huge graph.
//
// A Prefetcher owns its goroutines: Close waits for them, so none outlive
// the component that started them.
type Prefetcher struct {
	eng   *Engine
	clock netsim.Clock

	mu     sync.Mutex
	closed bool
	wg     *netsim.WaitGroup

	// stats
	resolved uint64
	failed   uint64
}

// NewPrefetcher builds a prefetcher over eng. Its walker goroutines run on
// the engine runtime's clock, so prefetching stays sound inside
// virtual-clock simulations.
func NewPrefetcher(eng *Engine) *Prefetcher {
	clock := eng.Runtime().Clock()
	return &Prefetcher{eng: eng, clock: clock, wg: netsim.NewWaitGroup(clock)}
}

// Prefetch schedules a background walk from ref, resolving up to budget
// object faults (0 means the whole reachable frontier). It returns
// immediately; Wait blocks until outstanding walks finish.
func (p *Prefetcher) Prefetch(ref *objmodel.Ref, budget int) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()

	p.clock.Go(func() {
		defer p.wg.Done()
		p.walk(ref, budget)
	})
}

// walk resolves faults breadth-first from ref until the budget runs out or
// the frontier is exhausted. Failures (e.g. a disconnection) stop the walk;
// the application's own fault will retry later.
func (p *Prefetcher) walk(root *objmodel.Ref, budget int) {
	queue := []*objmodel.Ref{root}
	seen := make(map[objmodel.OID]bool)
	for len(queue) > 0 {
		if p.isClosed() {
			return
		}
		ref := queue[0]
		queue = queue[1:]
		oid := ref.OID()
		if oid != 0 && seen[oid] {
			continue
		}
		seen[oid] = true

		wasResolved := ref.IsResolved()
		obj, err := ref.Resolve()
		if err != nil {
			p.mu.Lock()
			p.failed++
			p.mu.Unlock()
			return
		}
		if !wasResolved {
			p.mu.Lock()
			p.resolved++
			done := budget > 0 && p.resolved >= uint64(budget)
			p.mu.Unlock()
			if done {
				return
			}
		}
		queue = objmodel.AppendRefs(queue, obj)
	}
}

// Wait blocks until all scheduled walks have finished.
func (p *Prefetcher) Wait() { p.wg.Wait() }

// Close stops accepting work, interrupts running walks at the next fault
// boundary, and waits for them.
func (p *Prefetcher) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Prefetcher) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Stats returns (faults resolved ahead of the application, walks aborted
// by errors).
func (p *Prefetcher) Stats() (resolved, failed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resolved, p.failed
}
