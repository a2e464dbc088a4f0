// Package telemetry is the observability layer of the OBIWAN runtime:
// causal trace propagation across RMI hops and a per-site metrics
// registry, both exported live through the admin service.
//
// The paper's central claims (figures 4–6) are about where time goes when
// an object fault at one site cascades into a demand RMI, a payload
// assembly at the provider, and a materialization back at the faulting
// site. Single-site replication events cannot show that chain; this
// package links the steps into one rooted span tree by carrying a compact
// trace context (trace id + parent span id) inside wire.Call frames.
//
// Design constraints, in order:
//
//   - Near-zero cost when disabled: every entry point is a nil-receiver
//     no-op, so an un-instrumented runtime pays one nil check per call.
//   - Deterministic under netsim: span ids are minted from a per-site
//     counter salted with the site name, and the clock is injectable, so
//     a seeded scenario produces the same tree — ids included — on every
//     run.
//   - Bounded memory: finished spans land in a fixed-size ring; metrics
//     are counters, gauges, and fixed-bucket histograms.
package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"obiwan/internal/codec"
)

// SpanContext is the compact causal identity carried in wire.Call frames:
// which trace an operation belongs to and which span caused it. The zero
// value means "not traced" and propagates as absence.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether sc names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// PhaseSegment attributes part of a span's self-time to one of the typed
// phases of the demand pipeline (see the Phase* constants). Durations are
// measured on the owning runtime's clock, so virtual-clock runs attribute
// deterministically.
type PhaseSegment struct {
	Phase string
	NS    int64
}

// The phase taxonomy: every nanosecond a critical path attributes falls
// into one of these buckets (or stays "unattributed" — span time no
// instrumentation point claimed).
const (
	// PhaseQueue is time an inbound frame waited before dispatch.
	PhaseQueue = "queue"
	// PhaseNet is time an outbound call spent waiting for the reply.
	PhaseNet = "net"
	// PhaseServe is handler execution on the serving site.
	PhaseServe = "serve"
	// PhaseAssemble is payload assembly (graph traversal + capture).
	PhaseAssemble = "assemble"
	// PhaseApply is update application at the master (restore + journal).
	PhaseApply = "apply"
	// PhaseFsyncWait is time queued behind another caller's group commit.
	PhaseFsyncWait = "fsync.wait"
	// PhaseFsync is the WAL's own fsync system call.
	PhaseFsync = "fsync"
	// PhaseElectWait is time stalled on leader election/failover rotation.
	PhaseElectWait = "elect.wait"
	// PhaseRetryBackoff is time slept between RMI retry attempts.
	PhaseRetryBackoff = "retry.backoff"
	// PhaseSubmitWait is Submit-to-apply wait in the consensus log.
	PhaseSubmitWait = "submit.wait"
	// PhaseUnattributed labels the critical-path remainder no segment
	// claimed. Never recorded on spans; produced by attribution only.
	PhaseUnattributed = "unattributed"
)

// SpanRecord is one finished span, as exported over the admin service.
// Times are nanoseconds on the owning site's (possibly injected) clock;
// they order spans within a site but are not comparable across sites.
type SpanRecord struct {
	TraceID uint64
	SpanID  uint64
	// Parent is the causing span's id (possibly on another site), 0 for
	// trace roots.
	Parent uint64
	// Site is the name of the site that recorded the span.
	Site string
	// Name is the operation: "fault", "rmi:Get", "serve:Get", "assemble",
	// "materialize", "put.apply", ...
	Name    string
	StartNS int64
	EndNS   int64
	// Attrs are "key=value" annotations in append order (retry attempts,
	// object ids, payload sizes).
	Attrs []string
	// Phases attribute portions of the span's self-time to typed pipeline
	// phases, in first-recorded order (repeats accumulate in place).
	Phases []PhaseSegment
	// Err is the operation's error text, empty on success.
	Err string
}

func (r SpanRecord) String() string {
	d := time.Duration(r.EndNS - r.StartNS)
	s := fmt.Sprintf("%s %s trace=%x span=%x parent=%x %v", r.Site, r.Name, r.TraceID, r.SpanID, r.Parent, d)
	for _, a := range r.Attrs {
		s += " " + a
	}
	if r.Err != "" {
		s += " err=" + r.Err
	}
	return s
}

func init() {
	codec.MustRegister("obiwan.telemetry.PhaseSegment", PhaseSegment{})
	codec.MustRegister("obiwan.telemetry.SpanRecord", SpanRecord{})
}

// SpanPrefix is the static first half of a two-part span name such as
// "rmi:"+method: the halves are joined on export, not on every call.
type SpanPrefix uint8

const (
	PrefixNone  SpanPrefix = iota
	PrefixRMI              // "rmi:<method>", the client half of a call
	PrefixServe            // "serve:<method>", the server half
)

var spanPrefixes = [...]string{"", "rmi:", "serve:"}

// attrKind says how an attribute's value is rendered on export.
type attrKind uint8

const (
	attrUint   attrKind = iota // decimal
	attrOID                    // site/sequence, as objmodel.OID.String
	attrString                 // verbatim
)

// spanAttr is one attribute as recorded; render formats it.
type spanAttr struct {
	key, str string // str is the value of an attrString
	num      uint64 // the value otherwise
	kind     attrKind
}

func (a spanAttr) render() string {
	switch a.kind {
	case attrUint:
		a.str = strconv.FormatUint(a.num, 10)
	case attrOID:
		a.str = strconv.FormatUint(a.num>>48, 10) + "/" + strconv.FormatUint(a.num&(1<<48-1), 10)
	}
	return a.key + "=" + a.str
}

// What a span holds inline. The demand and put paths record at most two
// numeric attributes and two phases per span, so there a span allocates
// nothing of its own.
const (
	inlineAttrs  = 2
	inlinePhases = 2
)

// spanOverflow is the rest: string-valued attributes and every attribute
// after one (append order is export order), and phases past the inline.
type spanOverflow struct {
	attrs  []spanAttr
	phases []PhaseSegment
}

// Span is an in-progress operation. A nil *Span is the disabled fast
// path: every method is a nil-receiver no-op, so instrumented code never
// branches on whether telemetry is on.
//
// An open span lives in the frame of the code that started it: the Hub's
// Start methods inline into their caller, so the Span they allocate stays
// on the caller's stack unless the caller lets the pointer escape. It
// belongs to that goroutine until End, which copies its spanData into the
// tracer's ring and marks it ended: later Annotate, Phase, SetErr and End
// calls are no-ops, and Context still answers. A span keeps numbers, and
// strings as the caller gave them; the SpanRecord (site name, joined name,
// "key=value" strings) is rendered when a snapshot is taken.
type Span struct {
	tr *Tracer // nil once ended
	spanData
}

// spanData is a span's content, and the ring's record of a finished one.
// The ring retains 4096 of them per site by value, so its size is live
// heap: TestSpanSizePinned.
type spanData struct {
	traceID, spanID, parent uint64
	startNS, endNS          int64
	name, err               string

	prefix   SpanPrefix
	nAttrs   uint8
	nPhases  uint8
	kinds    [inlineAttrs]attrKind
	attrKeys [inlineAttrs]string
	attrNums [inlineAttrs]uint64
	phases   [inlinePhases]PhaseSegment
	more     *spanOverflow
}

// ended reports whether End has run.
func (s *Span) ended() bool { return s.tr == nil }

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID}
}

// Annotate appends a "key=value" attribute whose value is a string.
func (s *Span) Annotate(key, value string) { s.annotate(attrString, key, value, 0) }

// AnnotateUint appends a "key=<decimal>" attribute.
func (s *Span) AnnotateUint(key string, v uint64) { s.annotate(attrUint, key, "", v) }

// AnnotateOID appends "key=<site>/<sequence>", as objmodel.OID.String.
func (s *Span) AnnotateOID(key string, oid uint64) { s.annotate(attrOID, key, "", oid) }

func (s *Span) annotate(kind attrKind, key, str string, num uint64) {
	if s == nil || s.ended() {
		return
	}
	if kind != attrString && s.more == nil && int(s.nAttrs) < inlineAttrs {
		s.kinds[s.nAttrs], s.attrKeys[s.nAttrs], s.attrNums[s.nAttrs] = kind, key, num
		s.nAttrs++
		return
	}
	more := s.overflow()
	more.attrs = append(more.attrs, spanAttr{key, str, num, kind})
}

func (s *Span) overflow() *spanOverflow {
	if s.more == nil {
		s.more = new(spanOverflow)
	}
	return s.more
}

// addTo accumulates ns into the segment of segs named name, if there is one.
func addTo(segs []PhaseSegment, name string, ns int64) bool {
	for i := range segs {
		if segs[i].Phase == name {
			segs[i].NS += ns
			return true
		}
	}
	return false
}

// Phase attributes d of the span's self-time to the named phase.
// Repeated calls with the same name accumulate into one segment.
// Negative durations are ignored; nil and ended spans no-op.
func (s *Span) Phase(name string, d time.Duration) {
	if s == nil || s.ended() || d <= 0 || addTo(s.phases[:s.nPhases], name, int64(d)) {
		return
	}
	if int(s.nPhases) < inlinePhases {
		s.phases[s.nPhases] = PhaseSegment{Phase: name, NS: int64(d)}
		s.nPhases++
	} else if more := s.overflow(); !addTo(more.phases, name, int64(d)) {
		more.phases = append(more.phases, PhaseSegment{Phase: name, NS: int64(d)})
	}
}

// SetErr records err's text on the span (nil clears nothing, it no-ops).
func (s *Span) SetErr(err error) {
	if s == nil || s.ended() || err == nil {
		return
	}
	s.err = err.Error()
}

// End finishes the span and copies it into the tracer's ring, once: the
// span is ended from here on, so later Annotate, Phase, SetErr and End
// calls are no-ops.
func (s *Span) End() {
	if s == nil || s.ended() {
		return
	}
	tr := s.tr
	s.tr = nil
	s.endNS = tr.clock().UnixNano()
	tr.commit(&s.spanData)
}

// record renders the finished span as its exported SpanRecord.
func (s *spanData) record(site string) SpanRecord {
	r := SpanRecord{
		TraceID: s.traceID, SpanID: s.spanID, Parent: s.parent,
		Site: site, Name: spanPrefixes[s.prefix] + s.name,
		StartNS: s.startNS, EndNS: s.endNS, Err: s.err,
	}
	var more spanOverflow
	if s.more != nil {
		more = *s.more
	}
	if n := int(s.nAttrs) + len(more.attrs); n > 0 {
		r.Attrs = make([]string, 0, n)
		for i := 0; i < int(s.nAttrs); i++ {
			r.Attrs = append(r.Attrs, spanAttr{key: s.attrKeys[i], num: s.attrNums[i], kind: s.kinds[i]}.render())
		}
		for _, a := range more.attrs {
			r.Attrs = append(r.Attrs, a.render())
		}
	}
	if n := int(s.nPhases) + len(more.phases); n > 0 {
		r.Phases = append(append(make([]PhaseSegment, 0, n), s.phases[:s.nPhases]...), more.phases...)
	}
	return r
}

// defaultSpanCapacity bounds the finished-span ring.
const defaultSpanCapacity = 4096

// spanSlabLen is how many records one slab of the span ring holds: as many
// as fit in 32 KiB, the largest small-object size class, so a slab of 178
// wastes 16 bytes. A larger slab is rounded up to whole 8 KiB pages: 256
// records took 49152 bytes, 192 a record, what a heap object per span cost.
const spanSlabLen = 32 << 10 / int(unsafe.Sizeof(spanData{}))

// Tracer mints and records spans for one site, behind its Hub. Safe for
// concurrent use.
type Tracer struct {
	site   string
	idBase uint64
	clock  func() time.Time
	seq    atomic.Uint64 // span ids minted

	mu sync.Mutex
	// slabs hold the ring's records by value: the n-th span ever committed
	// is at position n % capacity, in slab position/spanSlabLen. A slab is
	// allocated when the ring first reaches it and never regrown, so an
	// idle site holds none and each record's bytes are paid once.
	slabs    [][]spanData
	capacity int
	total    uint64 // spans ever committed; all but the last capacity are gone
}

// newTracer builds a tracer whose span ids are salted with the site name:
// id = fnv32(site)<<32 | seq. Two sites in one deployment mint from
// disjoint spaces, and a rerun of a deterministic scenario mints the same
// ids in the same order.
func newTracer(site string, clock func() time.Time, capacity int) *Tracer {
	if clock == nil {
		clock = time.Now
	}
	if capacity <= 0 {
		capacity = defaultSpanCapacity
	}
	return &Tracer{
		site:     site,
		idBase:   uint64(fnv32(site)) << 32,
		clock:    clock,
		slabs:    make([][]spanData, (capacity+spanSlabLen-1)/spanSlabLen),
		capacity: capacity,
	}
}

// start begins s, a zero Span, as a span named prefix+name. An invalid
// parent starts a new trace rooted at this span (its trace id is its span
// id).
func (t *Tracer) start(s *Span, parent SpanContext, prefix SpanPrefix, name string) {
	id := t.idBase | (t.seq.Add(1) & 0xffffffff)
	s.tr, s.traceID, s.spanID, s.prefix, s.name = t, id, id, prefix, name
	if parent.Valid() {
		s.traceID, s.parent = parent.TraceID, parent.SpanID
	}
	s.startNS = t.clock().UnixNano()
}

// commit copies a finished span into the ring, over the oldest record
// when the ring is full.
func (t *Tracer) commit(s *spanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := int(t.total % uint64(t.capacity))
	slab := t.slabs[pos/spanSlabLen]
	if slab == nil { // the ring fills in order, so pos starts this slab
		slab = make([]spanData, min(spanSlabLen, t.capacity-pos))
		t.slabs[pos/spanSlabLen] = slab
	}
	slab[pos%spanSlabLen] = *s
	t.total++
}

// retained is how many records the ring holds.
func (t *Tracer) retained() uint64 { return min(t.total, uint64(t.capacity)) }

// Snapshot returns up to max finished spans, oldest first (all of them
// when max <= 0).
func (t *Tracer) Snapshot(max int) []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	cursor := uint64(0)
	if max > 0 && t.retained() > uint64(max) {
		cursor = t.total - uint64(max)
	}
	spans, _, _ := t.sinceLocked(cursor, max)
	return spans
}

// SnapshotSince returns up to max finished spans (all when max <= 0)
// committed at or after cursor, oldest first. The cursor counts spans
// ever committed: 0 starts from the oldest retained span, and the
// returned next value resumes exactly where this call stopped, so a
// poller sees every retained span exactly once — across disconnects too,
// since the cursor lives at the client. missed counts requested spans
// that were already evicted from the ring (the poller fell behind).
func (t *Tracer) SnapshotSince(cursor uint64, max int) (spans []SpanRecord, next uint64, missed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinceLocked(cursor, max)
}

// sinceLocked is SnapshotSince under t.mu: records are rendered here,
// under the lock that commit copies them in under.
func (t *Tracer) sinceLocked(cursor uint64, max int) (spans []SpanRecord, next uint64, missed uint64) {
	oldest := t.total - t.retained()
	if cursor > t.total {
		cursor = t.total
	}
	if cursor < oldest {
		missed = oldest - cursor
		cursor = oldest
	}
	n := t.total - cursor
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	spans = make([]SpanRecord, 0, n)
	for i := cursor; i < cursor+n; i++ {
		pos := int(i % uint64(t.capacity))
		spans = append(spans, t.slabs[pos/spanSlabLen][pos%spanSlabLen].record(t.site))
	}
	return spans, cursor + n, missed
}

// fnv32 is FNV-1a, the same salt the heap uses for site ids.
func fnv32(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	if h == 0 {
		h = 1
	}
	return h
}

// TraceNode is one span plus its causal children — the tree form of a
// trace collected from every involved site.
type TraceNode struct {
	Span     SpanRecord
	Children []*TraceNode
}

// BuildTrees links spans (possibly from several sites) into rooted trees
// by (TraceID, Parent). Spans whose parent is missing (evicted, or held
// by a site that was not collected) become roots of their own partial
// trees. Output order is deterministic: trees sorted by (TraceID, root
// SpanID), children by SpanID.
//
// The input may be adversarial: span ids are deterministic per site
// NAME, so two live sites deployed under the same name (say, two TCP
// sites listening on ":0") mint colliding ids, and stitching their dumps
// together can produce duplicate ids and parent cycles. BuildTrees keeps
// the first record for a duplicated id and breaks any link that would
// close a cycle (the child becomes a partial root) — it never loops.
func BuildTrees(spans []SpanRecord) []*TraceNode {
	nodes := make(map[uint64]*TraceNode, len(spans))
	order := make([]uint64, 0, len(spans))
	for _, sp := range spans {
		if _, dup := nodes[sp.SpanID]; dup {
			continue
		}
		nodes[sp.SpanID] = &TraceNode{Span: sp}
		order = append(order, sp.SpanID)
	}
	parent := make(map[uint64]uint64, len(nodes))
	var roots []*TraceNode
	for _, id := range order {
		n := nodes[id]
		sp := n.Span
		p, ok := nodes[sp.Parent]
		if !ok || sp.Parent == sp.SpanID || linkWouldCycle(parent, sp.Parent, sp.SpanID) {
			roots = append(roots, n)
			continue
		}
		p.Children = append(p.Children, n)
		parent[sp.SpanID] = sp.Parent
	}
	var sortKids func(n *TraceNode)
	sortKids = func(n *TraceNode) {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Span.SpanID < n.Children[j].Span.SpanID
		})
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	for _, r := range roots {
		sortKids(r)
	}
	sort.Slice(roots, func(i, j int) bool {
		a, b := roots[i].Span, roots[j].Span
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		return a.SpanID < b.SpanID
	})
	return roots
}

// linkWouldCycle reports whether setting child's parent to p would close
// a loop — i.e. whether child is already an ancestor of p. The parent
// map only ever holds acyclic links (every link is vetted here first),
// so the ancestor walk terminates.
func linkWouldCycle(parent map[uint64]uint64, p, child uint64) bool {
	for {
		if p == child {
			return true
		}
		next, ok := parent[p]
		if !ok {
			return false
		}
		p = next
	}
}

// Walk visits the tree depth-first, reporting each span with its depth.
func (n *TraceNode) Walk(fn func(depth int, sp SpanRecord)) {
	var rec func(d int, n *TraceNode)
	rec = func(d int, n *TraceNode) {
		fn(d, n.Span)
		for _, c := range n.Children {
			rec(d+1, c)
		}
	}
	rec(0, n)
}

// FormatTree renders a tree as an indented listing.
func FormatTree(root *TraceNode) string {
	var out string
	root.Walk(func(depth int, sp SpanRecord) {
		for i := 0; i < depth; i++ {
			out += "  "
		}
		out += sp.String() + "\n"
	})
	return out
}
