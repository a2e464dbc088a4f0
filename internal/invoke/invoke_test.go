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

// callNoArgAllocs is what Call of a method with no arguments and one int
// result allocates: the results slice, reflect's own result slice and the
// boxed int. Only ever goes down (4 while the call's argument slice was
// made per call).
const callNoArgAllocs = 3

func TestCallAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	recv := &valRecv{1 << 20} // past the runtime's preallocated small ints
	got := testing.AllocsPerRun(1000, func() {
		if _, err := Call(recv, "Get", nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > callNoArgAllocs {
		t.Fatalf("a no-argument call allocates %.1f objects, pinned at %d", got, callNoArgAllocs)
	}
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
