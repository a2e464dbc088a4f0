package objmodel

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"obiwan/internal/codec"
	"obiwan/internal/invoke"
	"obiwan/internal/raceflag"
)

// node is a list element, the paper's canonical workload shape.
type node struct {
	Value []byte
	Label string
	Next  *Ref
}

func (n *node) First() byte {
	if len(n.Value) == 0 {
		return 0
	}
	return n.Value[0]
}

func (n *node) SetLabel(l string) { n.Label = l }

// tree exercises refs in slices, maps, and nested structs.
type tree struct {
	Children []*Ref
	ByName   map[string]*Ref
	Meta     treeMeta
}

type treeMeta struct {
	Root *Ref
}

func (t *tree) Kind() string { return "tree" }

// bush declares tree's method with another result, so a call dispatched on
// the wrong type's handle shows.
type bush struct{ Leaves int }

func (b *bush) Kind() string { return "bush" }

func init() {
	MustRegisterType("objmodel_test.node", (*node)(nil))
	MustRegisterType("objmodel_test.tree", (*tree)(nil))
	MustRegisterType("objmodel_test.bush", (*bush)(nil))
}

func TestRegisterTypeValidation(t *testing.T) {
	if err := RegisterType("x", 42); err == nil {
		t.Fatal("non-struct must be rejected")
	}
	type plain struct{ A int }
	if err := RegisterType("y", plain{}); err == nil {
		t.Fatal("method-less struct must be rejected")
	}
	// Idempotent re-registration.
	if err := RegisterType("objmodel_test.node", (*node)(nil)); err != nil {
		t.Fatalf("idempotent registration: %v", err)
	}
	// Name collision with a different type.
	if err := RegisterType("objmodel_test.node", (*tree)(nil)); err == nil {
		t.Fatal("name collision must be rejected")
	}
}

// shape is registered by TestRegisterTypePlansByStaticType alone.
type shape struct{}

func (*shape) Kind() string { return "shape" }

// TestRegisterTypePlansByStaticType: a sample whose static type is any
// registers on the reflective path; one typed T (or *T) gives the methods
// their typed calls.
func TestRegisterTypePlansByStaticType(t *testing.T) {
	check := func(registered error, want []string) {
		t.Helper()
		if registered != nil {
			t.Fatal(registered)
		}
		p, err := invoke.PlanOf(reflect.TypeFor[*shape]())
		if err != nil {
			t.Fatal(err)
		}
		if r := p.Reflective(); !reflect.DeepEqual(r, want) {
			t.Fatalf("reflective methods %v, want %v", r, want)
		}
	}
	var untyped any = (*shape)(nil)
	check(RegisterType("objmodel_test.shape", untyped), []string{"Kind"})
	check(RegisterType("objmodel_test.shape", shape{}), nil)
}

func TestInfoLookup(t *testing.T) {
	info, ok := InfoByName("objmodel_test.node")
	if !ok {
		t.Fatal("node not registered")
	}
	if info.Type.Name() != "node" {
		t.Fatalf("type: %v", info.Type)
	}
	byObj, ok := InfoOf(&node{})
	if !ok || byObj != info {
		t.Fatal("InfoOf mismatch")
	}
	fresh := info.New()
	if _, ok := fresh.(*node); !ok {
		t.Fatalf("New returned %T", fresh)
	}
}

func TestRefsOfDiscovery(t *testing.T) {
	r1, r2, r3, r4 := &Ref{}, &Ref{}, &Ref{}, &Ref{}
	tr := &tree{
		Children: []*Ref{r1, nil, r2},
		ByName:   map[string]*Ref{"a": r3},
		Meta:     treeMeta{Root: r4},
	}
	refs := RefsOf(tr)
	if len(refs) != 4 {
		t.Fatalf("found %d refs, want 4: %v", len(refs), refs)
	}
	seen := map[*Ref]bool{}
	for _, r := range refs {
		seen[r] = true
	}
	for i, want := range []*Ref{r1, r2, r3, r4} {
		if !seen[want] {
			t.Fatalf("ref %d not discovered", i)
		}
	}
}

func TestRefsOfSkipsByteSlices(t *testing.T) {
	n := &node{Value: make([]byte, 1<<16)}
	if refs := RefsOf(n); len(refs) != 0 {
		t.Fatalf("refs in plain node: %v", refs)
	}
	n.Next = &Ref{}
	if refs := RefsOf(n); len(refs) != 1 {
		t.Fatalf("want 1 ref, got %d", len(refs))
	}
}

func TestCaptureRestoreWithRefs(t *testing.T) {
	reg := codec.DefaultRegistry()
	target := &node{Label: "tail"}
	head := &node{
		Value: []byte{1, 2, 3},
		Label: "head",
		Next:  NewLocalRef(target, OID(77)),
	}
	state, err := CaptureState(reg, head)
	if err != nil {
		t.Fatal(err)
	}
	out := &node{}
	if err := RestoreState(reg, out, state); err != nil {
		t.Fatal(err)
	}
	if out.Label != "head" || string(out.Value) != "\x01\x02\x03" {
		t.Fatalf("state: %+v", out)
	}
	if out.Next == nil {
		t.Fatal("ref field lost")
	}
	if out.Next.OID() != OID(77) {
		t.Fatalf("ref OID: %v", out.Next.OID())
	}
	if out.Next.IsResolved() {
		t.Fatal("restored ref must be unbound")
	}
}

func TestCaptureNilRef(t *testing.T) {
	reg := codec.DefaultRegistry()
	state, err := CaptureState(reg, &node{Label: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	out := &node{}
	if err := RestoreState(reg, out, state); err != nil {
		t.Fatal(err)
	}
	if out.Next != nil {
		t.Fatalf("nil ref should stay nil, got %v", out.Next)
	}
}

func TestCaptureNeverBoundRefRejected(t *testing.T) {
	reg := codec.DefaultRegistry()
	_, err := CaptureState(reg, &node{Next: &Ref{}})
	if err == nil {
		t.Fatal("capturing a never-bound ref must fail")
	}
}

func TestLocalRefInvoke(t *testing.T) {
	n := &node{Value: []byte{9}}
	r := NewLocalRef(n, 1)
	if !r.IsResolved() {
		t.Fatal("local ref should be resolved")
	}
	res, err := r.Invoke("First")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != byte(9) {
		t.Fatalf("First: %#v", res[0])
	}
	if r.Calls() != 1 {
		t.Fatalf("calls: %d", r.Calls())
	}
}

func TestDerefTyped(t *testing.T) {
	n := &node{Label: "x"}
	r := NewLocalRef(n, 1)
	got, err := Deref[*node](r)
	if err != nil || got != n {
		t.Fatalf("deref: %v %v", got, err)
	}
	if _, err := Deref[*tree](r); err == nil {
		t.Fatal("wrong-type deref must fail")
	}
}

func TestUnboundRef(t *testing.T) {
	r := &Ref{}
	if _, err := r.Resolve(); !errors.Is(err, ErrUnboundRef) {
		t.Fatalf("want ErrUnboundRef, got %v", err)
	}
	if _, err := r.Invoke("First"); !errors.Is(err, ErrUnboundRef) {
		t.Fatalf("invoke: %v", err)
	}
}

// fakeFaulter counts demands and hands out a fixed object.
type fakeFaulter struct {
	mu      sync.Mutex
	demands int
	obj     any
	err     error
	remote  RemoteInvoker
}

func (f *fakeFaulter) ResolveFault() (any, RemoteInvoker, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.demands++
	return f.obj, f.remote, f.err
}

func (f *fakeFaulter) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.demands
}

type fakeRemote struct {
	mu    sync.Mutex
	calls []string
	res   []any
	err   error
}

func (f *fakeRemote) RemoteInvoke(method string, args []any) ([]any, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, method)
	return f.res, f.err
}

func TestFaultingRefResolvesOnce(t *testing.T) {
	target := &node{Value: []byte{5}}
	ff := &fakeFaulter{obj: target}
	r := NewFaultingRef(10, ff, nil)
	if r.IsResolved() {
		t.Fatal("should start unresolved")
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Invoke("First")
			if err != nil {
				errs <- err
				return
			}
			if res[0] != byte(5) {
				errs <- fmt.Errorf("got %v", res[0])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ff.count() != 1 {
		t.Fatalf("fault resolved %d times, want exactly 1", ff.count())
	}
	if !r.IsResolved() {
		t.Fatal("should be resolved after invoke")
	}
}

func TestFaultErrorPropagates(t *testing.T) {
	ff := &fakeFaulter{err: errors.New("link down")}
	r := NewFaultingRef(10, ff, nil)
	if _, err := r.Invoke("First"); err == nil {
		t.Fatal("fault error must propagate")
	}
	// The ref stays unresolved and can retry.
	ff.mu.Lock()
	ff.err = nil
	ff.obj = &node{Value: []byte{1}}
	ff.mu.Unlock()
	if _, err := r.Invoke("First"); err != nil {
		t.Fatalf("retry after failed fault: %v", err)
	}
}

func TestModeRemoteUsesRemoteInvoker(t *testing.T) {
	fr := &fakeRemote{res: []any{int64(1)}}
	ff := &fakeFaulter{obj: &node{}}
	r := NewFaultingRef(10, ff, fr)
	r.SetMode(ModeRemote)
	res, err := r.Invoke("First")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != int64(1) {
		t.Fatalf("res: %#v", res)
	}
	if ff.count() != 0 {
		t.Fatal("ModeRemote must not fault the object in")
	}
	if r.IsResolved() {
		t.Fatal("ModeRemote must not resolve")
	}
	// Switching to local mode replicates on next call — the run-time
	// switch the paper advertises.
	r.SetMode(ModeLocal)
	if _, err := r.Invoke("First"); err != nil {
		t.Fatal(err)
	}
	if ff.count() != 1 || !r.IsResolved() {
		t.Fatal("ModeLocal should have faulted the object in")
	}
}

// decidingFaulter prefers RMI below a call threshold, LMI at or above it.
type decidingFaulter struct {
	fakeFaulter
	threshold uint64
}

func (d *decidingFaulter) PreferLocal(n uint64) bool { return n >= d.threshold }

func TestModeAutoCrossover(t *testing.T) {
	fr := &fakeRemote{res: []any{int64(0)}}
	df := &decidingFaulter{threshold: 3}
	df.obj = &node{}
	r := NewFaultingRef(10, df, fr)
	r.SetMode(ModeAuto)
	// Calls 1 and 2 go remote; call 3 crosses over and replicates.
	for i := 0; i < 2; i++ {
		if _, err := r.Invoke("First"); err != nil {
			t.Fatal(err)
		}
	}
	if df.count() != 0 {
		t.Fatal("crossed over too early")
	}
	if _, err := r.Invoke("First"); err != nil {
		t.Fatal(err)
	}
	if df.count() != 1 || !r.IsResolved() {
		t.Fatal("third call should have replicated")
	}
	fr.mu.Lock()
	remoteCalls := len(fr.calls)
	fr.mu.Unlock()
	if remoteCalls != 2 {
		t.Fatalf("remote calls: %d, want 2", remoteCalls)
	}
}

func TestModeRemoteAfterResolutionStillRMI(t *testing.T) {
	fr := &fakeRemote{res: []any{int64(7)}}
	n := &node{Value: []byte{1}}
	r := NewLocalRef(n, 5)
	r.SetRemote(fr)
	r.SetMode(ModeRemote)
	res, err := r.Invoke("First")
	if err != nil || res[0] != int64(7) {
		t.Fatalf("res=%v err=%v", res, err)
	}
	r.SetMode(ModeLocal)
	res, err = r.Invoke("First")
	if err != nil || res[0] != byte(1) {
		t.Fatalf("local res=%v err=%v", res, err)
	}
}

func TestBindLocalSplice(t *testing.T) {
	ff := &fakeFaulter{obj: &node{}}
	r := NewFaultingRef(10, ff, nil)
	replica := &node{Label: "replica"}
	r.BindLocal(replica, 10)
	got, err := Deref[*node](r)
	if err != nil || got != replica {
		t.Fatalf("deref: %v %v", got, err)
	}
	if ff.count() != 0 {
		t.Fatal("bound ref must not fault")
	}
}

func TestOIDString(t *testing.T) {
	oid := OID(uint64(3)<<48 | 42)
	if got := oid.String(); got != "3/42" {
		t.Fatalf("oid string: %q", got)
	}
}

func TestRefString(t *testing.T) {
	r := NewLocalRef(&node{}, 1)
	if s := r.String(); s == "" {
		t.Fatal("empty string")
	}
	r2 := NewFaultingRef(2, &fakeFaulter{}, nil)
	if s := r2.String(); s == "" {
		t.Fatal("empty string")
	}
}

func TestInvocationModeString(t *testing.T) {
	for m, want := range map[InvocationMode]string{
		ModeLocal:         "local",
		ModeRemote:        "remote",
		ModeAuto:          "auto",
		InvocationMode(9): "mode(9)",
	} {
		if got := m.String(); got != want {
			t.Fatalf("mode %d: %q want %q", m, got, want)
		}
	}
}

// payloadHeavy has many non-ref fields: the plan cache must skip them all.
type payloadHeavy struct {
	A, B, C, D [256]byte
	S1, S2     string
	N1, N2, N3 int64
	Blob       []byte
	Next       *Ref
}

func (p *payloadHeavy) Kind() string { return "heavy" }

func init() {
	MustRegisterType("objmodel_test.heavy", (*payloadHeavy)(nil))
}

func TestRefsOfPlanCorrectness(t *testing.T) {
	h := &payloadHeavy{Blob: make([]byte, 1<<16)}
	if refs := RefsOf(h); len(refs) != 0 {
		t.Fatalf("refs in ref-less heavy object: %d", len(refs))
	}
	h.Next = &Ref{}
	refs := RefsOf(h)
	if len(refs) != 1 || refs[0] != h.Next {
		t.Fatalf("plan missed the direct ref: %v", refs)
	}
}

func TestRefsOfNilAndNonStruct(t *testing.T) {
	if refs := RefsOf((*payloadHeavy)(nil)); refs != nil {
		t.Fatalf("nil pointer: %v", refs)
	}
}

func TestCouldContainRefRecursiveTypes(t *testing.T) {
	type selfRef struct {
		Next *selfRef
		R    *Ref
	}
	if !couldContainRef(reflect.TypeOf(selfRef{})) {
		t.Fatal("recursive type with ref must report true")
	}
	type pureChain struct {
		Next *pureChain
		N    int
	}
	if couldContainRef(reflect.TypeOf(pureChain{})) {
		t.Fatal("ref-free recursive type must report false")
	}
}

func BenchmarkRefsOfHeavyPayload(b *testing.B) {
	h := &payloadHeavy{Blob: make([]byte, 4096), Next: &Ref{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := RefsOf(h); len(got) != 1 {
			b.Fatal("wrong refs")
		}
	}
}

func BenchmarkRefsOfSliceOfRefs(b *testing.B) {
	tr := &tree{Children: make([]*Ref, 64)}
	for i := range tr.Children {
		tr.Children[i] = &Ref{}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := RefsOf(tr); len(got) != 64 {
			b.Fatal("wrong refs")
		}
	}
}

func TestRefBindFaultAndAccessors(t *testing.T) {
	ff := &fakeFaulter{obj: &node{Value: []byte{7}}}
	fr := &fakeRemote{res: []any{int64(1)}}
	r := &Ref{}
	r.BindFault(42, ff, fr)
	if r.OID() != 42 || r.IsResolved() {
		t.Fatalf("after BindFault: %v", r)
	}
	if r.Faulter() != Faulter(ff) {
		t.Fatal("Faulter accessor")
	}
	if r.Remote() != RemoteInvoker(fr) {
		t.Fatal("Remote accessor")
	}
	if r.Mode() != ModeLocal {
		t.Fatalf("default mode: %v", r.Mode())
	}
	// BindFault with nil remote keeps the previous invoker.
	r.BindFault(43, ff, nil)
	if r.Remote() != RemoteInvoker(fr) {
		t.Fatal("nil remote must not clobber")
	}
	// Resolve through the fault, then the faulter is gone.
	if _, err := r.Resolve(); err != nil {
		t.Fatal(err)
	}
	if r.Faulter() != nil {
		t.Fatal("faulter must clear after resolution")
	}
}

// TestRefErrorPathsReadOIDUnderLock: the errors of a failed fault, a failed
// remote invoke and a type mismatch name the oid read under the ref's lock,
// so building them does not race a concurrent rebind (go test -race).
func TestRefErrorPathsReadOIDUnderLock(t *testing.T) {
	failing := &fakeFaulter{err: errors.New("link down")}
	for name, c := range map[string]struct {
		f    Faulter
		fail func(r *Ref) error
	}{
		"fault":  {failing, func(r *Ref) error { _, err := r.Resolve(); return err }},
		"remote": {failing, func(r *Ref) error { r.SetMode(ModeRemote); _, err := r.Invoke("Kind"); return err }},
		"deref":  {&fakeFaulter{obj: &tree{}}, func(r *Ref) error { _, err := Deref[*node](r); return err }},
	} {
		r := NewFaultingRef(1, c.f, &fakeRemote{err: errors.New("refused")})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := range 200 {
				r.BindFault(OID(i+1), c.f, nil)
			}
		}()
		for range 200 {
			if err := c.fail(r); err == nil {
				t.Errorf("%s: no error", name)
				break
			}
		}
		<-done
	}
}

// lmiAllocs is what Ref.Invoke allocates for a no-argument method with a
// string result on a resolved ref of a registered type: the results slice
// and the boxed string. Only ever goes down.
const lmiAllocs = 2

func TestLMIAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	r := NewLocalRef(&tree{}, 1)
	hit := testing.AllocsPerRun(1000, func() {
		if _, err := r.Invoke("Kind"); err != nil {
			t.Fatal(err)
		}
	})
	// A miss: every call follows a rebind to a target of the other type,
	// so the cached handle never fits and is looked up and stored again.
	targets, i := []any{&tree{}, &bush{}}, 0
	miss := testing.AllocsPerRun(1000, func() {
		i++
		r.BindLocal(targets[i%2], OID(i%2+1))
		if _, err := r.Invoke("Kind"); err != nil {
			t.Fatal(err)
		}
	})
	for what, got := range map[string]float64{"hit": hit, "miss": miss} {
		if got > lmiAllocs {
			t.Errorf("LMI (%s) allocates %.1f objects, pinned at %d", what, got, lmiAllocs)
		}
	}
}

// refBytes is the size of a Ref on a 64-bit platform: one per replicated
// reference slot, so a field added to it is paid by every replica. Only
// ever goes down.
const refBytes = 104

func TestRefSizePinned(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Ref{}); got > refBytes {
		t.Fatalf("a Ref is %d bytes, pinned at %d", got, refBytes)
	}
}

// TestRefHandleFollowsRebinds: while one goroutine invokes a method that
// tree and bush both declare, another rebinds the ref between a tree, a
// bush and a proxy-out and switches its mode. Every local result is the
// one of the type bound when the call read the ref (a handle of the other
// type would panic on the receiver or answer for the wrong type), and the
// ref counts every call once (go test -race).
func TestRefHandleFollowsRebinds(t *testing.T) {
	tr, bu := &tree{}, &bush{}
	remote := &fakeRemote{res: []any{"remote"}}
	faulter := &fakeFaulter{obj: bu}
	r := NewLocalRef(tr, 1)
	r.SetRemote(remote)

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				r.BindLocal(tr, 1)
			case 1:
				r.BindLocal(bu, 2)
			case 2:
				r.BindFault(3, faulter, nil)
			case 3:
				r.SetMode(InvocationMode(i / 4 % 3))
			}
		}
	}()
	const calls = 5000
	seen := map[any]int{}
	for range calls {
		res, err := r.Invoke("Kind")
		if err != nil {
			t.Error(err)
			break
		}
		seen[res[0]]++
	}
	close(stop)
	<-done
	for got := range seen {
		if got != "tree" && got != "bush" && got != "remote" {
			t.Errorf("result %v", got)
		}
	}
	if got := r.Calls(); got != calls {
		t.Fatalf("Calls() = %d after %d invocations", got, calls)
	}
}

func TestMustRegisterTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegisterType must panic on invalid samples")
		}
	}()
	MustRegisterType("objmodel_test.bad", 42)
}

func TestRestoreStateRejectsJunk(t *testing.T) {
	out := &node{}
	if err := RestoreState(codec.DefaultRegistry(), out, []byte{0xff, 0xff}); err == nil {
		t.Fatal("junk state must fail to restore")
	}
}
