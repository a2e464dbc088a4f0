// Package consensus is a Raft-style replicated log for small groups of
// sites (3–5 members). It exists so that an object's mastership can be a
// replicated *role* instead of a physical location: the site layer runs
// one Node per master group, proposes engine mutations as opaque commands,
// and replays committed entries deterministically on every member.
//
// The split of responsibilities follows the classical design:
//
//   - store.go is the persistent acceptor/voter state (term, vote, log),
//     layered on internal/wal — the fsynced, CRC-framed, torn-tail-safe
//     store consensus protocols assume;
//   - this file is the volatile protocol state machine: randomized
//     election on timeout, leader lease from heartbeat acks, log
//     replication with conflict truncation, majority commit (current-term
//     entries only), and in-order apply.
//
// Every delay and every background goroutine goes through a netsim.Clock,
// so a group under the discrete-event VirtualClock elects, fails over,
// and converges bit-identically per seed — which is how the chaos suite
// can assert bounded failover latency at all.
package consensus

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
)

// Protocol errors.
var (
	// ErrLostLeadership is returned to a proposer whose entry was
	// truncated by a successor's conflicting log — the proposal did not
	// survive the election.
	ErrLostLeadership = errors.New("consensus: lost leadership before commit")
	// ErrProposalTimeout is returned when a proposal does not commit
	// within the submitter's budget (no quorum reachable).
	ErrProposalTimeout = errors.New("consensus: proposal timed out")
	// ErrClosed is returned by operations on a closed node.
	ErrClosed = errors.New("consensus: node closed")
)

// NotLeaderError redirects a caller to the member this node believes is
// the leader (empty when no leader is known yet).
type NotLeaderError struct {
	Hint string
}

func (e *NotLeaderError) Error() string {
	return fmt.Sprintf("consensus: not the leader (hint %q)", e.Hint)
}

// Wire types. Registered with the codec so the site layer can export a
// Service over plain RMI.

// VoteRequest solicits a vote for Candidate in Term.
type VoteRequest struct {
	Term      uint64
	Candidate string
	LastIndex uint64
	LastTerm  uint64
}

// VoteReply grants or refuses a vote.
type VoteReply struct {
	Term    uint64
	Granted bool
}

// AppendRequest replicates log entries (a heartbeat when Entries is
// empty) and advertises the leader's commit index.
type AppendRequest struct {
	Term      uint64
	Leader    string
	PrevIndex uint64
	PrevTerm  uint64
	Entries   []Entry
	Commit    uint64
}

// AppendReply reports consistency-check success. MatchHint is the highest
// index the follower's log matches (on success) or a back-up hint for the
// leader's next attempt (on failure).
type AppendReply struct {
	Term      uint64
	Success   bool
	MatchHint uint64
}

func init() {
	codec.MustRegister("obiwan.consensus.VoteRequest", VoteRequest{})
	codec.MustRegister("obiwan.consensus.VoteReply", VoteReply{})
	codec.MustRegister("obiwan.consensus.AppendRequest", AppendRequest{})
	codec.MustRegister("obiwan.consensus.AppendReply", AppendReply{})
}

// Event is an observability hook record: elections, leadership changes,
// truncations. The site layer feeds these to the flight recorder so
// `obiwan-admin flight` can explain a failover after the fact.
type Event struct {
	Kind   string // "consensus.candidate", "consensus.elected", "consensus.stepdown", "consensus.truncate"
	Term   uint64
	Leader string
	Detail string
}

// Config assembles a Node.
type Config struct {
	// ID is this member's stable identity (its site address).
	ID string
	// Members lists every group member, including ID. Order is not
	// significant; membership is static for the life of the group.
	Members []string
	// Clock drives every timer and goroutine (netsim.Real or a
	// VirtualClock). Required.
	Clock netsim.Clock
	// Store holds the durable term/vote/log state. Required.
	Store *Store
	// Call invokes method on a peer's consensus service: the site layer
	// routes it over RMI. Must be safe for concurrent use and must not
	// call back into the node.
	Call func(peer, method string, args ...any) ([]any, error)
	// Apply replays one committed entry into the state machine, in index
	// order, exactly once per process lifetime. Its return value is
	// handed to the local Submit waiter, if any. Barrier entries (nil
	// Data) are not passed to Apply.
	Apply func(ent Entry) any
	// OnEvent observes protocol transitions. Called with internal locks
	// held: record and return, never call back into the node.
	OnEvent func(ev Event)
	// Seed makes the randomized election timeouts deterministic per
	// member (mixed with ID), which the virtual-clock suites rely on.
	Seed int64
	// Metrics receives protocol counters (elections, heartbeats), the
	// current-term gauge, and the election-latency histogram. Optional;
	// nil (telemetry disabled) costs one pointer nil-check per event.
	Metrics *telemetry.Metrics

	// ElectionTimeout is the base follower patience; actual timeouts are
	// uniform in [ElectionTimeout, 2×ElectionTimeout). Default 200ms.
	ElectionTimeout time.Duration
	// Heartbeat is the leader's replication/keepalive period. Default
	// ElectionTimeout/10.
	Heartbeat time.Duration
	// Lease is how long a majority-acked heartbeat entitles the leader
	// to serve reads without re-confirming. Must stay below
	// ElectionTimeout. Default ElectionTimeout×3/4.
	Lease time.Duration
}

type role int

const (
	follower role = iota
	candidate
	leader
)

// maxBatch caps entries per AppendEntries round.
const maxBatch = 64

type waiter struct {
	term uint64
	done bool
	res  any
	err  error
}

// Node is one member's consensus participant.
type Node struct {
	cfg     Config
	clock   netsim.Clock
	store   *Store
	peers   []string // members minus self
	quorum  int
	applyMu sync.Mutex // serializes Apply across commit-advancing paths

	// Pre-resolved instruments (nil no-ops when telemetry is off). All
	// operations are atomic, so they are safe to touch with n.mu held.
	met struct {
		elections  *telemetry.Counter
		heartbeats *telemetry.Counter
		term       *telemetry.Gauge
		electionNS *telemetry.Histogram
	}

	mu               sync.Mutex
	cond             netsim.Cond // all waits: submit, WaitLeader, peer senders
	rng              *rand.Rand
	role             role
	term             uint64
	votedFor         string
	leader           string
	commit           uint64
	applied          uint64
	electionDeadline time.Time
	candidacySince   time.Time // first candidacy of the current leaderless stretch
	nextBeat         time.Time
	votes            map[string]bool
	nextIndex        map[string]uint64
	matchIndex       map[string]uint64
	ackTime          map[string]time.Time
	lastSend         map[string]time.Time
	leaseUntil       time.Time
	barrier          uint64 // index of this term's no-op; serving waits for it
	waiters          map[uint64]*waiter
	closedFlag       bool
	closed           chan struct{}
	closeOnce        sync.Once
}

// New builds and starts a node: its timer loop begins immediately, so a
// quorum of started members will elect a leader within a few election
// timeouts.
func New(cfg Config) (*Node, error) {
	if cfg.ID == "" || cfg.Clock == nil || cfg.Store == nil {
		return nil, errors.New("consensus: Config needs ID, Clock and Store")
	}
	found := false
	var peers []string
	for _, m := range cfg.Members {
		if m == cfg.ID {
			found = true
			continue
		}
		peers = append(peers, m)
	}
	if !found {
		return nil, fmt.Errorf("consensus: member list %v does not contain %q", cfg.Members, cfg.ID)
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 200 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.ElectionTimeout / 10
	}
	if cfg.Lease <= 0 || cfg.Lease >= cfg.ElectionTimeout {
		cfg.Lease = cfg.ElectionTimeout * 3 / 4
	}
	n := &Node{
		cfg:        cfg,
		clock:      cfg.Clock,
		store:      cfg.Store,
		peers:      peers,
		quorum:     len(cfg.Members)/2 + 1,
		waiters:    make(map[uint64]*waiter),
		nextIndex:  make(map[string]uint64),
		matchIndex: make(map[string]uint64),
		ackTime:    make(map[string]time.Time),
		lastSend:   make(map[string]time.Time),
		closed:     make(chan struct{}),
	}
	n.cond.Init(n.clock, &n.mu)
	n.met.elections = cfg.Metrics.Counter("consensus.elections")
	n.met.heartbeats = cfg.Metrics.Counter("consensus.heartbeats")
	n.met.term = cfg.Metrics.Gauge("consensus.term")
	n.met.electionNS = cfg.Metrics.Histogram("consensus.election_latency_ns")
	// Per-member deterministic timeouts: mix the ID into the seed so
	// members sharing a scenario seed still desynchronize their timers.
	h := int64(0)
	for _, c := range cfg.ID {
		h = h*131 + int64(c)
	}
	n.rng = rand.New(rand.NewSource(cfg.Seed ^ h))
	n.term, n.votedFor = n.store.State()
	n.met.term.Set(int64(n.term))
	n.electionDeadline = n.clock.Now().Add(n.randTimeoutLocked())
	n.clock.Go(n.run)
	return n, nil
}

// ID returns this member's identity.
func (n *Node) ID() string { return n.cfg.ID }

// Term returns the current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Leader returns the member this node believes leads the current term
// ("" when unknown).
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leader
}

// Gate reports whether this member may serve group state right now: it
// must lead, hold an unexpired majority lease, and have applied its own
// term's barrier entry (so its state machine includes everything any
// predecessor committed). Otherwise it returns a NotLeaderError carrying
// the best-known redirect hint.
func (n *Node) Gate() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closedFlag {
		return ErrClosed
	}
	if n.role == leader && n.applied >= n.barrier && n.clock.Now().Before(n.leaseUntil) {
		return nil
	}
	hint := n.leader
	if n.role == leader {
		hint = "" // leading but lease lapsed or barrier pending: retry here later
	}
	return &NotLeaderError{Hint: hint}
}

// WaitLeader blocks until some member is known to lead (possibly this
// one) and returns its identity.
func (n *Node) WaitLeader(timeout time.Duration) (string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	timedOut := false
	t := n.clock.AfterFunc(timeout, func() {
		n.mu.Lock()
		timedOut = true
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	defer t.Stop()
	for n.leader == "" && !n.closedFlag && !timedOut {
		n.cond.Wait()
	}
	if n.leader != "" {
		return n.leader, nil
	}
	if n.closedFlag {
		return "", ErrClosed
	}
	return "", fmt.Errorf("consensus: no leader within %v", timeout)
}

// Submit proposes data as the next log entry and blocks until it is
// committed AND applied locally, returning Apply's result. Non-leaders
// fail fast with a NotLeaderError redirect.
func (n *Node) Submit(data []byte, timeout time.Duration) (any, error) {
	n.mu.Lock()
	if n.closedFlag {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if n.role != leader {
		hint := n.leader
		n.mu.Unlock()
		return nil, &NotLeaderError{Hint: hint}
	}
	term := n.term
	idx := n.store.LastIndex() + 1
	if err := n.store.Append(Entry{Term: term, Index: idx, Data: data}); err != nil {
		n.mu.Unlock()
		return nil, err
	}
	w := &waiter{term: term}
	n.waiters[idx] = w
	n.maybeCommitLocked() // single-member groups commit on append
	n.cond.Broadcast()    // kick the peer senders
	n.mu.Unlock()
	n.applyAll()

	n.mu.Lock()
	t := n.clock.AfterFunc(timeout, func() {
		n.mu.Lock()
		if !w.done {
			w.done, w.err = true, ErrProposalTimeout
		}
		n.cond.Broadcast()
		n.mu.Unlock()
	})
	for !w.done {
		n.cond.Wait()
	}
	res, err := w.res, w.err
	delete(n.waiters, idx)
	n.mu.Unlock()
	t.Stop()
	return res, err
}

// Close stops the node and flushes the store. Waiting proposals fail with
// ErrClosed.
func (n *Node) Close() error {
	n.shutdown()
	return n.store.Close()
}

// Abandon stops the node without flushing — the crash analogue.
func (n *Node) Abandon() {
	n.shutdown()
	n.store.Abandon()
}

func (n *Node) shutdown() {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		n.closedFlag = true
		close(n.closed)
		for _, w := range n.waiters {
			if !w.done {
				w.done, w.err = true, ErrClosed
			}
		}
		n.cond.Broadcast()
		n.mu.Unlock()
	})
}

func (n *Node) event(ev Event) {
	if n.cfg.OnEvent != nil {
		n.cfg.OnEvent(ev)
	}
}

func (n *Node) randTimeoutLocked() time.Duration {
	e := n.cfg.ElectionTimeout
	return e + time.Duration(n.rng.Int63n(int64(e)))
}

// run is the timer loop: it wakes at least every heartbeat interval,
// starts elections when the deadline lapses, and broadcasts the send
// condition so leader peer loops emit heartbeats on schedule.
func (n *Node) run() {
	for {
		n.mu.Lock()
		if n.closedFlag {
			n.mu.Unlock()
			return
		}
		now := n.clock.Now()
		if n.role == leader {
			if !now.Before(n.nextBeat) {
				n.nextBeat = now.Add(n.cfg.Heartbeat)
				n.cond.Broadcast()
			}
		} else if !now.Before(n.electionDeadline) {
			n.startElectionLocked(now)
		}
		n.mu.Unlock()
		n.applyAll()
		if !n.clock.SleepUntilCancel(n.clock.Now().Add(n.cfg.Heartbeat), n.closed) {
			return
		}
	}
}

// startElectionLocked begins a candidacy: bump the term, vote for self
// (persisted before anything leaves the site), and solicit the peers.
func (n *Node) startElectionLocked(now time.Time) {
	n.role = candidate
	n.term++
	n.votedFor = n.cfg.ID
	n.leader = ""
	if err := n.store.SetState(n.term, n.votedFor); err != nil {
		// A store that cannot persist votes must not vote: retry later.
		n.role = follower
		n.electionDeadline = now.Add(n.randTimeoutLocked())
		return
	}
	n.votes = map[string]bool{n.cfg.ID: true}
	n.electionDeadline = now.Add(n.randTimeoutLocked())
	n.met.elections.Inc()
	n.met.term.Set(int64(n.term))
	if n.candidacySince.IsZero() {
		// First candidacy of this leaderless stretch: election latency
		// measures from here to a win, spanning re-elections.
		n.candidacySince = now
	}
	term := n.term
	lastIdx := n.store.LastIndex()
	lastTerm := n.store.TermAt(lastIdx)
	n.event(Event{Kind: "consensus.candidate", Term: term, Detail: n.cfg.ID})
	for _, p := range n.peers {
		peer := p
		n.clock.Go(func() { n.solicitVote(peer, term, lastIdx, lastTerm) })
	}
	n.maybeWinLocked(term) // single-member group
}

func (n *Node) solicitVote(peer string, term, lastIdx, lastTerm uint64) {
	res, err := n.call(peer, "RequestVote", &VoteRequest{
		Term: term, Candidate: n.cfg.ID, LastIndex: lastIdx, LastTerm: lastTerm,
	})
	if err != nil {
		return
	}
	rep, ok := res.(*VoteReply)
	if !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closedFlag || n.term != term || n.role != candidate {
		return
	}
	if rep.Term > n.term {
		n.stepDownLocked(rep.Term, "")
		return
	}
	if rep.Granted {
		n.votes[peer] = true
		n.maybeWinLocked(term)
	}
}

func (n *Node) maybeWinLocked(term uint64) {
	if n.role != candidate || n.term != term || len(n.votes) < n.quorum {
		return
	}
	n.role = leader
	n.leader = n.cfg.ID
	now := n.clock.Now()
	n.nextBeat = now
	for _, p := range n.peers {
		n.nextIndex[p] = n.store.LastIndex() + 1
		n.matchIndex[p] = 0
		n.ackTime[p] = time.Time{}
		n.lastSend[p] = time.Time{}
	}
	// Commit barrier: entries from prior terms may only commit beneath a
	// current-term entry, and serving waits until it is applied.
	idx := n.store.LastIndex() + 1
	if err := n.store.Append(Entry{Term: term, Index: idx}); err == nil {
		n.barrier = idx
	}
	n.leaseUntil = time.Time{} // no lease until a majority acks
	if len(n.peers) == 0 {
		n.leaseUntil = now.Add(365 * 24 * time.Hour)
	}
	n.maybeCommitLocked()
	if !n.candidacySince.IsZero() {
		n.met.electionNS.ObserveDuration(now.Sub(n.candidacySince))
		n.candidacySince = time.Time{}
	}
	n.event(Event{Kind: "consensus.elected", Term: term, Leader: n.cfg.ID})
	for _, p := range n.peers {
		peer := p
		n.clock.Go(func() { n.runPeer(peer, term) })
	}
	n.cond.Broadcast()
}

func (n *Node) stepDownLocked(term uint64, newLeader string) {
	wasLeader := n.role == leader
	if term > n.term {
		n.term = term
		n.votedFor = ""
		_ = n.store.SetState(n.term, n.votedFor)
		n.met.term.Set(int64(n.term))
	}
	n.role = follower
	n.leader = newLeader
	if newLeader != "" {
		n.candidacySince = time.Time{} // someone leads: the stretch is over
	}
	n.electionDeadline = n.clock.Now().Add(n.randTimeoutLocked())
	if wasLeader {
		n.event(Event{Kind: "consensus.stepdown", Term: n.term, Leader: newLeader, Detail: n.cfg.ID})
	}
	n.cond.Broadcast()
}

// leaderAliveLocked reports whether this node still leads term.
func (n *Node) leaderAliveLocked(term uint64) bool {
	return !n.closedFlag && n.role == leader && n.term == term
}

// runPeer is the per-peer replication loop for one term of leadership:
// woken by new proposals and by the heartbeat tick, it sends the peer's
// next batch (or an empty keepalive), processes the ack, and exits when
// leadership ends.
func (n *Node) runPeer(peer string, term uint64) {
	for {
		n.mu.Lock()
		for n.leaderAliveLocked(term) && !n.needSendLocked(peer) {
			n.cond.Wait()
		}
		if !n.leaderAliveLocked(term) {
			n.mu.Unlock()
			return
		}
		next := n.nextIndex[peer]
		req := &AppendRequest{
			Term: term, Leader: n.cfg.ID,
			PrevIndex: next - 1, PrevTerm: n.store.TermAt(next - 1),
			Entries: n.store.Slice(next, maxBatch), Commit: n.commit,
		}
		sentAt := n.clock.Now()
		n.lastSend[peer] = sentAt
		n.met.heartbeats.Inc()
		n.mu.Unlock()

		res, err := n.call(peer, "AppendEntries", req)

		n.mu.Lock()
		if !n.leaderAliveLocked(term) {
			n.mu.Unlock()
			return
		}
		if err != nil {
			n.mu.Unlock() // unreachable peer: the next tick retries
			continue
		}
		rep, ok := res.(*AppendReply)
		if !ok {
			n.mu.Unlock()
			continue
		}
		if rep.Term > n.term {
			n.stepDownLocked(rep.Term, "")
			n.mu.Unlock()
			return
		}
		if rep.Success {
			m := req.PrevIndex + uint64(len(req.Entries))
			if m > n.matchIndex[peer] {
				n.matchIndex[peer] = m
			}
			n.nextIndex[peer] = n.matchIndex[peer] + 1
			n.ackTime[peer] = sentAt
			n.refreshLeaseLocked()
			n.maybeCommitLocked()
		} else {
			// Log divergence: back up (the hint skips the linear probe).
			ni := n.nextIndex[peer]
			switch {
			case rep.MatchHint+1 < ni:
				n.nextIndex[peer] = rep.MatchHint + 1
			case ni > 1:
				n.nextIndex[peer] = ni - 1
			}
		}
		n.mu.Unlock()
		n.applyAll()
	}
}

func (n *Node) needSendLocked(peer string) bool {
	if n.store.LastIndex() >= n.nextIndex[peer] {
		return true
	}
	return n.clock.Now().Sub(n.lastSend[peer]) >= n.cfg.Heartbeat
}

// refreshLeaseLocked recomputes the read lease: it extends Lease past the
// send time of the quorum-th freshest acked heartbeat (self acks
// implicitly "now"). Correctness leans on the standard assumption of
// bounded clock skew across members — exact under netsim, configuration
// policy on real deployments.
func (n *Node) refreshLeaseLocked() {
	times := make([]time.Time, 0, len(n.peers)+1)
	times = append(times, n.clock.Now())
	for _, p := range n.peers {
		times = append(times, n.ackTime[p])
	}
	// Insertion sort, newest first (≤5 members).
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j].After(times[j-1]); j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	anchor := times[n.quorum-1]
	if anchor.IsZero() {
		return
	}
	if until := anchor.Add(n.cfg.Lease); until.After(n.leaseUntil) {
		n.leaseUntil = until
	}
}

// maybeCommitLocked advances the commit index to the highest slot of the
// CURRENT term that a majority stores (prior-term slots commit implicitly
// beneath it — the Raft safety rule).
func (n *Node) maybeCommitLocked() {
	last := n.store.LastIndex()
	for idx := last; idx > n.commit; idx-- {
		if n.store.TermAt(idx) != n.term {
			break
		}
		count := 1 // self
		for _, p := range n.peers {
			if n.matchIndex[p] >= idx {
				count++
			}
		}
		if count >= n.quorum {
			n.commit = idx
			n.cond.Broadcast()
			break
		}
	}
}

// applyAll replays committed-but-unapplied entries, in order, exactly
// once, delivering results to local waiters. applyMu keeps concurrent
// commit-advancers (peer loops, the RPC handler, Submit) from interleaving
// applies; n.mu is NOT held across the Apply callback, which reaches into
// the replication engine.
func (n *Node) applyAll() {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	for {
		n.mu.Lock()
		if n.applied >= n.commit {
			n.mu.Unlock()
			return
		}
		idx := n.applied + 1
		ent, ok := n.store.EntryAt(idx)
		if !ok {
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		var res any
		if len(ent.Data) > 0 && n.cfg.Apply != nil {
			res = n.cfg.Apply(ent)
		}
		n.mu.Lock()
		n.applied = idx
		if w, ok := n.waiters[idx]; ok && !w.done {
			if w.term == ent.Term {
				w.res, w.done = res, true
			} else {
				w.err, w.done = ErrLostLeadership, true
			}
			n.cond.Broadcast()
		}
		n.mu.Unlock()
	}
}

// truncateLocked drops slots ≥ from and fails their waiters: a successor
// leader's log disagreed, so those proposals are gone for good.
func (n *Node) truncateLocked(from uint64) error {
	if err := n.store.TruncateFrom(from); err != nil {
		return err
	}
	for idx, w := range n.waiters {
		if idx >= from && !w.done {
			w.err, w.done = ErrLostLeadership, true
		}
	}
	n.event(Event{Kind: "consensus.truncate", Term: n.term, Detail: fmt.Sprintf("from=%d", from)})
	n.cond.Broadcast()
	return nil
}

// call invokes a peer RPC through the configured transport hook and
// unwraps the single reply value.
func (n *Node) call(peer, method string, req any) (any, error) {
	if n.cfg.Call == nil {
		return nil, errors.New("consensus: no transport configured")
	}
	res, err := n.cfg.Call(peer, method, req)
	if err != nil {
		return nil, err
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("consensus: %s: empty reply", method)
	}
	return res[0], nil
}

// HandleRequestVote is the acceptor side of elections.
func (n *Node) HandleRequestVote(req *VoteRequest) (*VoteReply, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closedFlag {
		return nil, ErrClosed
	}
	if req.Term < n.term {
		return &VoteReply{Term: n.term}, nil
	}
	if req.Term > n.term {
		n.stepDownLocked(req.Term, "")
	}
	lastIdx := n.store.LastIndex()
	lastTerm := n.store.TermAt(lastIdx)
	upToDate := req.LastTerm > lastTerm || (req.LastTerm == lastTerm && req.LastIndex >= lastIdx)
	if (n.votedFor == "" || n.votedFor == req.Candidate) && upToDate {
		n.votedFor = req.Candidate
		if err := n.store.SetState(n.term, n.votedFor); err != nil {
			return nil, err
		}
		n.electionDeadline = n.clock.Now().Add(n.randTimeoutLocked())
		return &VoteReply{Term: n.term, Granted: true}, nil
	}
	return &VoteReply{Term: n.term}, nil
}

// HandleAppendEntries is the acceptor side of replication.
func (n *Node) HandleAppendEntries(req *AppendRequest) (*AppendReply, error) {
	n.mu.Lock()
	if n.closedFlag {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if req.Term < n.term {
		rep := &AppendReply{Term: n.term}
		n.mu.Unlock()
		return rep, nil
	}
	if req.Term > n.term || n.role != follower {
		n.stepDownLocked(req.Term, req.Leader)
	}
	if n.leader != req.Leader {
		n.leader = req.Leader
		n.candidacySince = time.Time{}
		n.cond.Broadcast() // WaitLeader learns the leader from heartbeats
	}
	n.electionDeadline = n.clock.Now().Add(n.randTimeoutLocked())

	last := n.store.LastIndex()
	if req.PrevIndex > last ||
		(req.PrevIndex >= 1 && n.store.TermAt(req.PrevIndex) != req.PrevTerm) {
		hint := last
		if req.PrevIndex <= last {
			hint = req.PrevIndex - 1
		}
		rep := &AppendReply{Term: n.term, MatchHint: hint}
		n.mu.Unlock()
		return rep, nil
	}
	for _, ent := range req.Entries {
		if ent.Index <= n.store.LastIndex() {
			if n.store.TermAt(ent.Index) == ent.Term {
				continue // duplicate delivery
			}
			if err := n.truncateLocked(ent.Index); err != nil {
				n.mu.Unlock()
				return nil, err
			}
		}
		// The log keeps the entry for good, and after a retransmission it
		// can be the one entry of its batch that was not already there:
		// copy the command out of the request frame it was decoded from
		// (DESIGN.md §4, frame ownership) instead of pinning that frame.
		ent.Data = bytes.Clone(ent.Data)
		if err := n.store.Append(ent); err != nil {
			n.mu.Unlock()
			return nil, err
		}
	}
	lastNew := req.PrevIndex + uint64(len(req.Entries))
	if req.Commit > n.commit {
		c := req.Commit
		if c > lastNew {
			c = lastNew
		}
		if c > n.commit {
			n.commit = c
			n.cond.Broadcast()
		}
	}
	rep := &AppendReply{Term: n.term, Success: true, MatchHint: lastNew}
	n.mu.Unlock()
	n.applyAll()
	return rep, nil
}

// Service is the RMI-facing wrapper the site layer exports at a
// well-known object id on every group member.
type Service struct {
	n *Node
}

// NewService wraps a node for export.
func NewService(n *Node) *Service { return &Service{n: n} }

// RequestVote serves a peer's vote solicitation.
func (s *Service) RequestVote(req *VoteRequest) (*VoteReply, error) {
	return s.n.HandleRequestVote(req)
}

// AppendEntries serves a peer's replication round.
func (s *Service) AppendEntries(req *AppendRequest) (*AppendReply, error) {
	return s.n.HandleAppendEntries(req)
}
