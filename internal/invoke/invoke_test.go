package invoke

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"obiwan/internal/raceflag"
	"obiwan/internal/telemetry"
)

type svc struct {
	last string
}

func (s *svc) Greet(name string) string { return "hi " + name }

func (s *svc) Record(v string) { s.last = v }

func (s *svc) Fail() error { return errors.New("nope") }

func (s *svc) Both(x int64) (int64, error) { return x + 1, nil }

func (s *svc) Many(xs ...string) int { return len(xs) }

func (s *svc) unexported() {} //nolint:unused // verifies filtering

func TestPlanFiltersExported(t *testing.T) {
	p, err := PlanOf(reflect.TypeOf(&svc{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.methods["Greet"]; !ok {
		t.Fatal("Greet missing")
	}
	if _, ok := p.methods["unexported"]; ok {
		t.Fatal("unexported leaked")
	}
	if m := p.methods["Both"]; !m.errOut || m.variadic || len(m.params) != 1 {
		t.Fatalf("Both planned as %+v", m)
	}
	if m := p.methods["Many"]; !m.variadic || m.errOut {
		t.Fatalf("Many planned as %+v", m)
	}
	// Cached: same plan back.
	p2, err := PlanOf(reflect.TypeOf(&svc{}))
	if err != nil {
		t.Fatal(err)
	}
	if p != p2 {
		t.Fatal("plan not cached")
	}
}

func TestPlanRejectsBareTypes(t *testing.T) {
	if _, err := PlanOf(reflect.TypeOf(42)); err == nil {
		t.Fatal("int must be rejected")
	}
}

// raced is planned by TestPlanBuiltOnceUnderConcurrentFirstUse alone.
type raced struct{}

func (raced) A() {}

func (raced) B(int64) error { return nil }

// TestPlanBuiltOnceUnderConcurrentFirstUse: eight goroutines meeting a type
// at once all get its one cached plan.
func TestPlanBuiltOnceUnderConcurrentFirstUse(t *testing.T) {
	const n = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [n]*Plan
	)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := PlanOf(reflect.TypeOf(raced{}))
			if err != nil {
				t.Error(err)
			}
			got[i] = p
		}()
	}
	close(start)
	wg.Wait()
	for i, p := range got {
		if p != got[0] || len(p.methods) != 2 {
			t.Fatalf("goroutine %d got plan %p with %d methods, goroutine 0 %p", i, p, len(p.methods), got[0])
		}
	}
}

// traced takes the serve span's context first, as the replication
// handlers do.
type traced struct{}

func (traced) Echo(sc telemetry.SpanContext, s string) string {
	return fmt.Sprintf("%d/%d %s", sc.TraceID, sc.SpanID, s)
}

// TestPlanCallPassesSpanContext: CallWithLead fills a leading SpanContext
// and counts it in its argument errors; Call (local invocation) does not.
func TestPlanCallPassesSpanContext(t *testing.T) {
	rv := reflect.ValueOf(traced{})
	p, err := PlanOf(rv.Type())
	if err != nil {
		t.Fatal(err)
	}
	res, err := CallWithLead(p, rv, "Echo", telemetry.SpanContext{TraceID: 1, SpanID: 2}, []any{"x"})
	if err != nil || res[0] != "1/2 x" {
		t.Fatalf("Echo: %v %v", res, err)
	}
	var ie *Error
	if _, err := CallWithLead(p, rv, "Echo", telemetry.SpanContext{}, []any{int64(1)}); !errors.As(err, &ie) || ie.Message != "arg 1: int64 not assignable to string" {
		t.Fatalf("bad arg: %v", err)
	}
	if _, err := CallWithLead(p, rv, "Echo", telemetry.SpanContext{}, nil); !errors.As(err, &ie) || ie.Message != "wants 2 args, got 1" {
		t.Fatalf("arity: %v", err)
	}
	if _, err := Call(traced{}, "Echo", []any{"x"}); !errors.As(err, &ie) || ie.Kind != KindBadArgs {
		t.Fatalf("local invocation must not fill the span context: %v", err)
	}
}

// TestMethodHandleFitsItsTypeAndName: a handle fits receivers of its own
// type under its own name only, and invoking it is Call.
func TestMethodHandleFitsItsTypeAndName(t *testing.T) {
	s := &svc{}
	m, err := Lookup(s, "Greet")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := Lookup(&svc{}, "Greet"); again != m {
		t.Fatal("the same type and name must give the same handle")
	}
	if !m.Fits(&svc{}, "Greet") {
		t.Fatal("handle does not fit its own type and name")
	}
	var nilHandle *Method
	for what, fits := range map[string]bool{
		"other name": m.Fits(s, "Record"),
		"other type": m.Fits(&valRecv{}, "Greet"),
		"value recv": m.Fits(svc{}, "Greet"),
		"nil recv":   m.Fits(nil, "Greet"),
		"nil handle": nilHandle.Fits(s, "Greet"),
	} {
		if fits {
			t.Errorf("%s: handle fits", what)
		}
	}
	got, err := m.Invoke(s, []any{"bo"})
	want, wantErr := Call(s, "Greet", []any{"bo"})
	if !reflect.DeepEqual(got, want) || err != nil || wantErr != nil {
		t.Fatalf("Invoke = %v, %v; Call = %v, %v", got, err, want, wantErr)
	}
	if _, err := Lookup(s, "Nope"); describe(err) != describe(NoSuchMethod(s, "Nope")) {
		t.Fatalf("missing method: %v", err)
	}
	var ie *Error
	if _, err := Lookup(42, "Nope"); !errors.As(err, &ie) || ie.Kind != KindNoSuchMethod {
		t.Fatalf("method-less type: %v", err)
	}
}

// callNoArgAllocs is what a reflective Call of a method with no arguments
// and one int result allocates: the results slice, reflect's own result
// slice and the boxed int. Only ever goes down (4 while the call's argument
// slice was made per call).
const callNoArgAllocs = 3

// callDirectAllocs is the same call on a type planned by PlanDirect: the
// results slice and the boxed int.
const callDirectAllocs = 2

func TestCallAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	for _, c := range []struct {
		name   string
		recv   any
		method string
		pin    int
	}{
		// 1<<20 is past the runtime's preallocated small ints.
		{"reflective", &valRecv{1 << 20}, "Get", callNoArgAllocs},
		{"direct", &shapes{Words: 1 << 20}, "WordCount", callDirectAllocs},
	} {
		got := testing.AllocsPerRun(1000, func() {
			if _, err := Call(c.recv, c.method, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(c.pin) {
			t.Errorf("%s: a no-argument call allocates %.1f objects, pinned at %d", c.name, got, c.pin)
		}
	}
}

// shapes has one method of each shape in the direct-call table, named and
// typed as the examples' and the benchmark's replicable types have them.
// Every method panics while boom is set.
type shapes struct {
	Name, Note string
	Cents      int64
	Words      int
	Done       bool
	Payload    []byte
	boom       bool
}

func init() {
	if _, err := PlanDirect[*shapes](); err != nil {
		panic(err)
	}
}

func (s *shapes) check() {
	if s.boom {
		panic("boom")
	}
}

func (s *shapes) Title() string          { s.check(); return s.Name }
func (s *shapes) Complete(note string)   { s.check(); s.Note = note }
func (s *shapes) Trade(cents int64)      { s.check(); s.Cents = cents }
func (s *shapes) Price() int64           { s.check(); return s.Cents }
func (s *shapes) WordCount() int         { s.check(); return s.Words }
func (s *shapes) Finish()                { s.check(); s.Done = true }
func (s *shapes) CRC() uint32            { s.check(); return uint32(len(s.Payload)) }
func (s *shapes) SetPayload(data []byte) { s.check(); s.Payload = data }

// TestDirectCoversEveryReplicableShape: each signature the examples and the
// benchmark's node declare takes the typed call.
func TestDirectCoversEveryReplicableShape(t *testing.T) {
	p, err := PlanOf(reflect.TypeFor[*shapes]())
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Reflective(); len(r) > 0 {
		t.Fatalf("methods on the reflective path: %v", r)
	}
}

// mixed has methods on and off the table.
type mixed struct{}

func (*mixed) Touch() int           { return 1 }
func (*mixed) First() byte          { return 1 }
func (*mixed) Fail() error          { return nil }
func (*mixed) Echo(s string) string { return s }
func (*mixed) Pair(int64, int64)    {}
func (*mixed) Named() namedString   { return "" }
func (*mixed) Rest(...string)       {}
func (*mixed) Narrow(int32)         {}

// TestPlanDirectPublishesANewPlan: a method off the table stays reflective,
// and PlanDirect replaces a cached reflective plan without changing it.
func TestPlanDirectPublishesANewPlan(t *testing.T) {
	old, err := PlanOf(reflect.TypeFor[*mixed]())
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanDirect[*mixed]()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := PlanOf(reflect.TypeFor[*mixed]()); got != p || got == old {
		t.Fatal("PlanDirect's plan is not the one cached")
	}
	want := []string{"Echo", "Fail", "First", "Named", "Narrow", "Pair", "Rest"}
	if r := p.Reflective(); !reflect.DeepEqual(r, want) {
		t.Fatalf("reflective methods %v, want %v", r, want)
	}
	if r := old.Reflective(); len(r) != 8 {
		t.Fatalf("the published reflective plan changed: %v", r)
	}
}

// TestDirectMatchesReflective holds each typed call to the reflective call
// of the same method: equal results (dynamic types and the empty slice of a
// method with no result included), equal receiver state, equal *Error kind
// and message, and the same panic.
func TestDirectMatchesReflective(t *testing.T) {
	p, err := PlanOf(reflect.TypeFor[*shapes]())
	if err != nil {
		t.Fatal(err)
	}
	vectors := [][]any{
		nil,                // right for no argument, arity for one
		{"text"},           // right for string
		{int64(-7)},        // right for int64
		{uint64(9)},        // converted to int64
		{[]byte("b")},      // right for []byte
		{nil},              // nil: a nil []byte, refused elsewhere
		{uint64(1 << 63)},  // overflows int64
		{1.5},              // wrong type everywhere
		{[]any{int64(1)}},  // element-wise into []byte
		{"text", int64(1)}, // arity everywhere
	}
	for name, m := range p.methods {
		if m.direct == nil {
			t.Fatalf("%s has no typed call", name)
		}
		for _, boom := range []bool{false, true} {
			for _, args := range vectors {
				dRecv := &shapes{Name: "n", Cents: 3, Words: 1 << 20, Payload: []byte("p"), boom: boom}
				rRecv := &shapes{Name: "n", Cents: 3, Words: 1 << 20, Payload: []byte("p"), boom: boom}
				dRes, dErr, dPanic := outcome(func() ([]any, error) { return m.direct(dRecv, name, args) })
				rRes, rErr, rPanic := outcome(func() ([]any, error) {
					return m.call(reflect.ValueOf(rRecv), reflect.Value{}, args)
				})
				what := fmt.Sprintf("%s%v boom=%v", name, args, boom)
				if !reflect.DeepEqual(dRes, rRes) {
					t.Errorf("%s: direct %#v, reflective %#v", what, dRes, rRes)
				}
				if describe(dErr) != describe(rErr) {
					t.Errorf("%s: direct error %s, reflective %s", what, describe(dErr), describe(rErr))
				}
				if dPanic != rPanic {
					t.Errorf("%s: direct panicked %v, reflective %v", what, dPanic, rPanic)
				}
				if !reflect.DeepEqual(dRecv, rRecv) {
					t.Errorf("%s: direct left %+v, reflective %+v", what, dRecv, rRecv)
				}
			}
		}
	}
}

// outcome runs call, reporting a panic's value instead of propagating it.
func outcome(call func() ([]any, error)) (res []any, err error, panicked any) {
	defer func() { panicked = recover() }()
	res, err = call()
	return res, err, nil
}

// describe is an error as the wire sees it: an *Error's kind, method and
// message.
func describe(err error) string {
	var ie *Error
	if !errors.As(err, &ie) {
		return fmt.Sprint(err)
	}
	return fmt.Sprintf("kind %d %s: %s", ie.Kind, ie.Method, ie.Message)
}

func TestCallHappyPath(t *testing.T) {
	s := &svc{}
	res, err := Call(s, "Greet", []any{"bob"})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "hi bob" {
		t.Fatalf("res: %#v", res)
	}
	// Void method with side effect.
	res, err = Call(s, "Record", []any{"x"})
	if err != nil || len(res) != 0 || s.last != "x" {
		t.Fatalf("record: %v %v %q", res, err, s.last)
	}
}

func TestCallErrorClassification(t *testing.T) {
	s := &svc{}
	var ie *Error

	_, err := Call(s, "Missing", nil)
	if !errors.As(err, &ie) || ie.Kind != KindNoSuchMethod {
		t.Fatalf("missing: %v", err)
	}
	_, err = Call(s, "Greet", []any{"a", "b"})
	if !errors.As(err, &ie) || ie.Kind != KindBadArgs {
		t.Fatalf("arity: %v", err)
	}
	_, err = Call(s, "Greet", []any{int64(3)})
	if !errors.As(err, &ie) || ie.Kind != KindBadArgs {
		t.Fatalf("type: %v", err)
	}
	_, err = Call(s, "Fail", nil)
	if !errors.As(err, &ie) || ie.Kind != KindApp || ie.Message != "nope" {
		t.Fatalf("app: %v", err)
	}
	if errors.Unwrap(ie) == nil {
		t.Fatal("app error must unwrap to the cause")
	}
}

func TestCallStripsTrailingNilError(t *testing.T) {
	res, err := Call(&svc{}, "Both", []any{int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != int64(5) {
		t.Fatalf("res: %#v", res)
	}
}

func TestCallVariadic(t *testing.T) {
	res, err := Call(&svc{}, "Many", []any{"a", "b", "c"})
	if err != nil || res[0] != 3 {
		t.Fatalf("variadic: %v %v", res, err)
	}
	res, err = Call(&svc{}, "Many", nil)
	if err != nil || res[0] != 0 {
		t.Fatalf("empty variadic: %v %v", res, err)
	}
}

func TestConvertArgMatrix(t *testing.T) {
	cases := []struct {
		name string
		in   any
		pt   reflect.Type
		ok   bool
		want any
	}{
		{"identity", "s", reflect.TypeOf(""), true, "s"},
		{"int64→int", int64(5), reflect.TypeOf(int(0)), true, 5},
		{"int64→int8 overflow", int64(300), reflect.TypeOf(int8(0)), false, nil},
		{"uint64→int64", uint64(5), reflect.TypeOf(int64(0)), true, int64(5)},
		{"uint64 huge→int64", uint64(1 << 63), reflect.TypeOf(int64(0)), false, nil},
		{"int64 neg→uint", int64(-1), reflect.TypeOf(uint(0)), false, nil},
		{"float64→float32", float64(1.5), reflect.TypeOf(float32(0)), true, float32(1.5)},
		{"float64→float32 overflow", float64(1e39), reflect.TypeOf(float32(0)), false, nil},
		{"float64→float32 negative overflow", float64(-1e39), reflect.TypeOf(float32(0)), false, nil},
		{"float64 huge→float64", float64(1e300), reflect.TypeOf(float64(0)), true, float64(1e300)},
		{"nil→pointer", nil, reflect.TypeOf((*svc)(nil)), true, (*svc)(nil)},
		{"nil→int", nil, reflect.TypeOf(0), false, nil},
		{"[]any→[]string", []any{"a", "b"}, reflect.TypeOf([]string(nil)), true, []string{"a", "b"}},
		{"[]any bad elem", []any{"a", int64(1)}, reflect.TypeOf([]string(nil)), false, nil},
		{"string→named string", "x", reflect.TypeOf(namedString("")), true, namedString("x")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := ConvertArg(tc.in, tc.pt)
			if tc.ok != (err == nil) {
				t.Fatalf("ok=%v err=%v", tc.ok, err)
			}
			if err == nil && !reflect.DeepEqual(v.Interface(), tc.want) {
				t.Fatalf("got %#v want %#v", v.Interface(), tc.want)
			}
		})
	}
}

type namedString string

func TestCallOnValueReceiverSet(t *testing.T) {
	// Methods declared on the value type are callable via the pointer too.
	res, err := Call(valRecv{7}, "Get", nil)
	if err != nil || res[0] != 7 {
		t.Fatalf("value receiver: %v %v", res, err)
	}
}

type valRecv struct{ n int }

func (v valRecv) Get() int { return v.n }
