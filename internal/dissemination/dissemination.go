// Package dissemination implements the updates-dissemination hook the
// paper names alongside transactions (§1): instead of replicas discovering
// staleness (invalidation) or polling (refresh), the master actively ships
// fresh state to subscribed replica sites.
//
// Two delivery modes cover the connectivity spectrum the paper targets:
//
//   - Push: on every master update, the publisher captures the object's
//     new state and delivers it to each subscriber. Failed deliveries are
//     remembered per subscriber and retried by the next update or an
//     explicit Flush (mobile holders miss pushes while disconnected).
//   - Pull: every update is also appended to a sequence-numbered log;
//     reconnecting sites call Pull(sinceSeq) to catch up in order.
//
// The publisher plugs into the replication engine as a consistency policy
// (it composes with another policy for put acceptance), so dissemination
// rides the same MasterUpdated hook as invalidation.
package dissemination

import (
	"errors"
	"fmt"
	"sync"

	"obiwan/internal/codec"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
)

func init() {
	codec.MustRegister("obiwan.dissem.Update", Update{})
}

// ErrTooFarBehind matches (via errors.Is) a Pull whose since-sequence
// predates the retained log window: the updates needed to catch up in
// order no longer exist, so the subscriber must full-state resync —
// refresh its replicas and resume pulling from the publisher's current
// Frontier — instead of pulling the gap.
var ErrTooFarBehind = errors.New("dissemination: requested sequence older than retained log")

// TooFarBehindError is the typed form of ErrTooFarBehind, carrying the
// boundary the caller needs to resynchronize.
type TooFarBehindError struct {
	// Since is the sequence the subscriber asked to pull after.
	Since uint64
	// Oldest is the oldest sequence still retained; everything in
	// (Since, Oldest) has been truncated.
	Oldest uint64
}

func (e *TooFarBehindError) Error() string {
	return fmt.Sprintf("dissemination: pull since seq %d, but log retains only seq >= %d: %v", e.Since, e.Oldest, ErrTooFarBehind)
}

// Is makes errors.Is(err, ErrTooFarBehind) match.
func (e *TooFarBehindError) Is(target error) bool { return target == ErrTooFarBehind }

// Update is one disseminated state change.
type Update struct {
	// Seq is the log sequence number (monotonic per publisher).
	Seq uint64
	// OID identifies the updated object.
	OID uint64
	// Version is the master version after the update.
	Version uint64
	// TypeName is the object's registered type.
	TypeName string
	// State is the full post-update state.
	State []byte
	// Frontier resolves references inside State that the receiving site
	// may not hold, exactly as in replication payloads.
	Frontier []replication.FrontierRef
}

// Deliver ships an update to one subscriber site; the site facade wires it
// to RMI, tests to a local function. Errors mark the subscriber lagged.
type Deliver func(site string, u *Update) error

// StateSource captures an object's current state; satisfied by
// *replication.Engine (CaptureSnapshot) plus heap lookup — the publisher
// needs both, so it takes the engine directly.

// Publisher is the master-side hub: it logs updates and pushes them to
// subscribers. It implements replication.Policy so it can be installed
// directly on the engine (composing put acceptance via Base).
type Publisher struct {
	// Base decides put acceptance; defaults to accepting everything.
	Base interface {
		ApplyPut(objmodel.OID, uint64, uint64) error
	}

	eng     *replication.Engine
	deliver Deliver

	mu      sync.Mutex
	nextSeq uint64
	log     []Update
	subs    map[string]*subscriber
	// maxLog bounds the retained log; 0 keeps everything.
	maxLog int
	// floorSeq is the highest truncated sequence: the log retains exactly
	// the updates with Seq > floorSeq.
	floorSeq uint64
}

type subscriber struct {
	site string
	// ackSeq is the last sequence successfully delivered.
	ackSeq uint64
}

var _ replication.Policy = (*Publisher)(nil)

// NewPublisher builds a publisher over the master engine, delivering via
// deliver.
func NewPublisher(eng *replication.Engine, deliver Deliver) *Publisher {
	return &Publisher{
		Base:    noCheck{},
		eng:     eng,
		deliver: deliver,
		subs:    make(map[string]*subscriber),
	}
}

type noCheck struct{}

func (noCheck) ApplyPut(objmodel.OID, uint64, uint64) error { return nil }

// SetMaxLog bounds the retained update log to n entries (oldest dropped,
// immediately and on every future append). Sites that fall further behind
// than the retained window get ErrTooFarBehind from Pull and must
// full-state resync instead.
func (p *Publisher) SetMaxLog(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.maxLog = n
	p.truncateLocked()
}

// truncateLocked enforces maxLog, advancing floorSeq past every dropped
// update. Caller holds p.mu.
func (p *Publisher) truncateLocked() {
	if p.maxLog <= 0 || len(p.log) <= p.maxLog {
		return
	}
	cut := len(p.log) - p.maxLog
	if s := p.log[cut-1].Seq; s > p.floorSeq {
		p.floorSeq = s
	}
	p.log = p.log[cut:]
}

// Frontier returns the publisher's current sequence frontier: the Seq of
// the newest logged update. A resyncing subscriber reads the frontier,
// refreshes its replicas, then resumes pulling with Pull(frontier) — any
// update sequenced after the frontier is covered by the pull, anything
// before it by the refresh.
func (p *Publisher) Frontier() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nextSeq
}

// Subscribe registers a site for pushes of every future update.
func (p *Publisher) Subscribe(site string) {
	if site == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.subs[site]; !ok {
		p.subs[site] = &subscriber{site: site, ackSeq: p.nextSeq}
	}
}

// Unsubscribe removes a site.
func (p *Publisher) Unsubscribe(site string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.subs, site)
}

// Subscribers returns the registered sites.
func (p *Publisher) Subscribers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.subs))
	for s := range p.subs {
		out = append(out, s)
	}
	return out
}

// ApplyPut delegates acceptance to the base policy.
func (p *Publisher) ApplyPut(oid objmodel.OID, cur, base uint64) error {
	return p.Base.ApplyPut(oid, cur, base)
}

// ReplicaCreated is a no-op: dissemination is subscription-based, not
// automatic per fetch (a fetching site opts in with Subscribe).
func (p *Publisher) ReplicaCreated(objmodel.OID, string, uint64) {}

// MasterUpdated captures the object's fresh state, appends it to the log,
// and pushes to every subscriber that is up to date; lagged subscribers
// are caught up in order.
func (p *Publisher) MasterUpdated(oid objmodel.OID, version uint64) {
	entry, ok := p.eng.Heap().Get(oid)
	if !ok {
		return
	}
	state, err := p.eng.CaptureSnapshot(entry.Obj)
	if err != nil {
		return
	}
	frontier, err := p.eng.BuildFrontier(entry.Obj)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.nextSeq++
	u := Update{
		Seq:      p.nextSeq,
		OID:      uint64(oid),
		Version:  version,
		TypeName: entry.TypeName,
		State:    state,
		Frontier: frontier,
	}
	p.log = append(p.log, u)
	p.truncateLocked()
	subs := make([]*subscriber, 0, len(p.subs))
	for _, s := range p.subs {
		subs = append(subs, s)
	}
	p.mu.Unlock()

	for _, s := range subs {
		p.catchUp(s)
	}
}

// Flush re-attempts delivery to every lagged subscriber (e.g. after a
// reconnection is observed). It returns the number of updates delivered.
func (p *Publisher) Flush() int {
	p.mu.Lock()
	subs := make([]*subscriber, 0, len(p.subs))
	for _, s := range p.subs {
		subs = append(subs, s)
	}
	p.mu.Unlock()
	delivered := 0
	for _, s := range subs {
		delivered += p.catchUp(s)
	}
	return delivered
}

// catchUp delivers, in order, every logged update the subscriber has not
// acknowledged. Delivery stops at the first failure (ordering preserved).
func (p *Publisher) catchUp(s *subscriber) int {
	delivered := 0
	for {
		p.mu.Lock()
		var next *Update
		for i := range p.log {
			if p.log[i].Seq > s.ackSeq {
				u := p.log[i]
				next = &u
				break
			}
		}
		p.mu.Unlock()
		if next == nil {
			return delivered
		}
		if err := p.deliver(s.site, next); err != nil {
			return delivered
		}
		p.mu.Lock()
		if next.Seq > s.ackSeq {
			s.ackSeq = next.Seq
		}
		p.mu.Unlock()
		delivered++
	}
}

// Lag returns how many logged updates site has not yet received.
func (p *Publisher) Lag(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.subs[site]
	if !ok {
		return 0
	}
	lag := 0
	for i := range p.log {
		if p.log[i].Seq > s.ackSeq {
			lag++
		}
	}
	return lag
}

// Pull returns the logged updates with Seq > since, in order — the pull
// path for reconnecting sites. If since predates the retained window
// (truncated by SetMaxLog), Pull returns a *TooFarBehindError (matching
// ErrTooFarBehind): the in-order gap is unrecoverable and the subscriber
// must full-state resync (see Frontier).
func (p *Publisher) Pull(since uint64) ([]Update, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if since < p.floorSeq {
		return nil, &TooFarBehindError{Since: since, Oldest: p.floorSeq + 1}
	}
	var out []Update
	for i := range p.log {
		if p.log[i].Seq > since {
			out = append(out, p.log[i])
		}
	}
	return out, nil
}

// Applier is the subscriber-side half: it applies disseminated updates to
// the local replicas.
type Applier struct {
	eng *replication.Engine

	mu      sync.Mutex
	lastSeq uint64
}

// NewApplier builds an applier over the subscriber site's engine.
func NewApplier(eng *replication.Engine) *Applier {
	return &Applier{eng: eng}
}

// LastSeq returns the highest sequence number applied.
func (a *Applier) LastSeq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastSeq
}

// Apply installs one update. Updates for objects not replicated here are
// acknowledged but skipped; stale or duplicate updates (Seq regressions
// or versions at/behind the replica) are ignored.
func (a *Applier) Apply(u *Update) error {
	a.mu.Lock()
	if u.Seq > a.lastSeq {
		a.lastSeq = u.Seq
	}
	a.mu.Unlock()

	entry, ok := a.eng.Heap().Get(objmodel.OID(u.OID))
	if !ok {
		return nil // not replicated here
	}
	if entry.Version() >= u.Version {
		return nil // already at least this fresh
	}
	return a.eng.InstallPushed(entry, &replication.ObjectRecord{
		OID: u.OID, TypeName: u.TypeName, Version: u.Version, State: u.State,
	}, u.Frontier)
}
