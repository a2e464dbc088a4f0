// Package invoke implements reflection-based method dispatch over decoded
// wire values. It is shared by two layers that the paper treats as distinct
// but structurally identical:
//
//   - the RMI skeleton (server-side dispatch of remote calls), and
//   - local method invocation (LMI) through an OBIWAN reference, where the
//     same call frame is applied to a local replica instead.
//
// Each method is worked out once, as a handle (Method), and the methods of a
// type are cached together as its plan. A registered type's plan
// (PlanDirect) calls each method of a known shape directly, with no
// reflect.Value.Call. The reflective path is the fallback for every other
// method and the reference a hand-written dispatcher (Args1, CheckArity,
// Result, NoSuchMethod) and the typed calls are held to. A
// caller that calls one method repeatedly keeps its handle (Lookup, Fits)
// and skips the plan cache; Call is a Lookup and an Invoke.
package invoke

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// ErrorKind classifies dispatch failures so transport layers can map them
// to protocol faults.
type ErrorKind uint8

const (
	// KindNoSuchMethod: the target type has no such exported method.
	KindNoSuchMethod ErrorKind = iota + 1
	// KindBadArgs: argument count or type mismatch.
	KindBadArgs
	// KindApp: the method itself returned a non-nil error.
	KindApp
)

// Error is a classified dispatch failure.
type Error struct {
	Kind    ErrorKind
	Method  string
	Message string
	// Cause is the application error for KindApp.
	Cause error
}

func (e *Error) Error() string {
	return fmt.Sprintf("invoke: %s: %s", e.Method, e.Message)
}

func (e *Error) Unwrap() error { return e.Cause }

var (
	errType = reflect.TypeFor[error]()

	// plans caches each type's *Plan, built on the type's first call.
	plans sync.Map
)

// Plan is the exported method set of one receiver type, each method worked
// out once.
type Plan struct {
	methods map[string]*Method
}

// Method is one exported method of one receiver type: what a call needs
// besides its receiver and arguments. A handle is never changed once its
// plan is published.
type Method struct {
	typ      reflect.Type // the receiver type
	name     string
	fn       reflect.Value  // Method.Func: the receiver is its first argument
	params   []reflect.Type // declared parameters, receiver excluded
	variadic bool
	errOut   bool   // the last result is an error, stripped from the results
	direct   direct // the typed call, when PlanDirect found the method's shape
}

// PlanOf returns the plan of t's exported methods, built on first use and
// cached. Types with no exported methods are rejected.
func PlanOf(t reflect.Type) (*Plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*Plan), nil
	}
	p, err := build(t)
	if err != nil {
		return nil, err
	}
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*Plan), nil
}

// PlanDirect builds the plan of P's exported methods as PlanOf does, gives
// each method whose signature is in the shape table (directOf) its typed
// call, and publishes the plan in place of any cached for P. A published
// plan is never changed: a call that loaded the reflective plan finishes on
// it, and both give the same results and errors.
func PlanDirect[P any]() (*Plan, error) {
	t := reflect.TypeFor[P]()
	p, err := build(t)
	if err != nil {
		return nil, err
	}
	for _, m := range p.methods {
		m.direct = directOf[P](m.fn.Interface())
	}
	plans.Store(t, p)
	return p, nil
}

func build(t reflect.Type) (*Plan, error) {
	if t.NumMethod() == 0 {
		return nil, fmt.Errorf("invoke: type %v has no exported methods", t)
	}
	p := &Plan{methods: make(map[string]*Method, t.NumMethod())}
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		mt := m.Type
		mp := &Method{typ: t, name: m.Name, fn: m.Func, variadic: mt.IsVariadic(), errOut: mt.NumOut() > 0 && mt.Out(mt.NumOut()-1) == errType}
		for j := 1; j < mt.NumIn(); j++ {
			mp.params = append(mp.params, mt.In(j))
		}
		p.methods[m.Name] = mp
	}
	return p, nil
}

// Reflective names, sorted, the plan's methods that have no typed call and
// go through reflect.Value.Call.
func (p *Plan) Reflective() []string {
	var names []string
	for name, m := range p.methods {
		if m.direct == nil {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// Call invokes method on recv with decoded wire arguments, adapting each
// argument to the declared parameter type. A trailing error result is
// stripped: nil vanishes, non-nil comes back as a KindApp *Error. A method
// with a typed call (PlanDirect) runs it; any other goes through reflection.
func Call(recv any, method string, args []any) ([]any, error) {
	m, err := Lookup(recv, method)
	if err != nil {
		return nil, err
	}
	return m.Invoke(recv, args)
}

// Lookup returns the handle of method on recv's type, from the type's plan
// (built on first use), or the error Call reports for it.
func Lookup(recv any, method string) (*Method, error) {
	p, err := PlanOf(reflect.TypeOf(recv))
	if err != nil {
		return nil, &Error{Kind: KindNoSuchMethod, Method: method, Message: err.Error()}
	}
	m := p.methods[method]
	if m == nil {
		return nil, NoSuchMethod(recv, method)
	}
	return m, nil
}

// Fits reports whether m is the method named method of recv's type, so that
// m.Invoke(recv, ...) is the call Lookup(recv, method) would give. A handle
// from a type's reflective plan still fits after PlanDirect republishes the
// type: both give the same results. A nil handle fits nothing.
func (m *Method) Fits(recv any, method string) bool {
	return m != nil && m.name == method && m.typ == reflect.TypeOf(recv)
}

// Invoke calls the method on recv, a value of the handle's type, as Call
// does.
func (m *Method) Invoke(recv any, args []any) ([]any, error) {
	if m.direct != nil {
		return m.direct(recv, m.name, args)
	}
	return m.call(reflect.ValueOf(recv), reflect.Value{}, args)
}

// direct is a method's typed call; recv is a value of the plan's type.
type direct func(recv any, method string, args []any) ([]any, error)

// directOf is the typed call of fn, a method of P with the receiver as its
// first parameter, or nil when fn's signature is not in the table. The table
// is closed: it holds the shapes the repository's replicable types have and
// nothing guessed, and a method of any other shape stays reflective. Each
// call checks and converts its arguments through CheckArity and Args1, so it
// accepts and refuses what the reflective call does, with the same errors.
func directOf[P any](fn any) direct {
	switch f := fn.(type) {
	case func(P):
		return func(recv any, method string, args []any) ([]any, error) {
			if err := CheckArity(method, args, 0, 0); err != nil {
				return nil, err
			}
			f(recv.(P))
			return []any{}, nil
		}
	case func(P) int:
		return direct0(f)
	case func(P) int64:
		return direct0(f)
	case func(P) uint32:
		return direct0(f)
	case func(P) string:
		return direct0(f)
	case func(P, string):
		return direct1(f)
	case func(P, int64):
		return direct1(f)
	case func(P, []byte):
		return direct1(f)
	}
	return nil
}

// direct0 calls a method of no arguments and one result.
func direct0[P, R any](f func(P) R) direct {
	return func(recv any, method string, args []any) ([]any, error) {
		if err := CheckArity(method, args, 0, 0); err != nil {
			return nil, err
		}
		return []any{f(recv.(P))}, nil
	}
}

// direct1 calls a method of one argument and no result.
func direct1[P, A any](f func(P, A)) direct {
	return func(recv any, method string, args []any) ([]any, error) {
		a, err := Args1[A](method, args, 0)
		if err != nil {
			return nil, err
		}
		f(recv.(P), a)
		return []any{}, nil
	}
}

// CallWithLead is the reflective skeleton's dispatch: method on recv, a
// value of the plan's type, where a method whose first declared parameter is
// of type L receives lead there and args after it. The skeleton's L is
// telemetry.SpanContext, which invoke cannot name: telemetry's own tests
// import objmodel, which imports invoke.
func CallWithLead[L any](p *Plan, recv reflect.Value, method string, lead L, args []any) ([]any, error) {
	m := p.methods[method]
	if m == nil {
		return nil, NoSuchMethod(recv.Interface(), method)
	}
	var lv reflect.Value
	if len(m.params) > 0 && m.params[0] == reflect.TypeFor[L]() {
		lv = reflect.ValueOf(lead)
	}
	return m.call(recv, lv, args)
}

// call runs the method with lead, when valid, ahead of args. The receiver
// and the arguments are passed in a stack array unless there are many.
func (m *Method) call(recv reflect.Value, lead reflect.Value, args []any) ([]any, error) {
	method := m.name
	var stack [6]reflect.Value
	in := append(stack[:0], recv)
	if lead.IsValid() {
		in = append(in, lead)
	}
	got := len(in) - 1 + len(args)
	if want := len(m.params); (!m.variadic && got != want) || (m.variadic && got < want-1) {
		return nil, badCount(method, want, got)
	}
	last := len(m.params) - 1
	for _, a := range args {
		i := len(in) - 1 // the parameter a is for
		pt := m.params[min(i, last)]
		if m.variadic && i >= last {
			pt = pt.Elem()
		}
		av, err := ConvertArg(a, pt)
		if err != nil {
			return nil, badArg(method, i, err)
		}
		in = append(in, av)
	}

	out := m.fn.Call(in)

	if n := len(out); m.errOut {
		if errv := out[n-1]; !errv.IsNil() {
			return nil, appError(method, errv.Interface().(error))
		}
		out = out[:n-1]
	}
	results := make([]any, len(out))
	for i, v := range out {
		results[i] = v.Interface()
	}
	return results, nil
}

// ConvertArg adapts a decoded wire value (canonical types: bool, int64,
// uint64, float64, string, []byte, []any, map[string]any, *Struct, ...) to
// the declared parameter type pt.
func ConvertArg(a any, pt reflect.Type) (reflect.Value, error) {
	if a == nil {
		switch pt.Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
			return reflect.Zero(pt), nil
		default:
			return reflect.Value{}, fmt.Errorf("nil not assignable to %v", pt)
		}
	}
	av := reflect.ValueOf(a)
	at := av.Type()
	if at.AssignableTo(pt) {
		return av, nil
	}
	// Registered structs decode as *T; accept a T parameter too.
	if at.Kind() == reflect.Pointer && at.Elem().AssignableTo(pt) {
		return av.Elem(), nil
	}
	switch pt.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if i, ok := wireInt(a); ok {
			out := reflect.New(pt).Elem()
			if out.OverflowInt(i) {
				return reflect.Value{}, fmt.Errorf("value %d overflows %v", i, pt)
			}
			out.SetInt(i)
			return out, nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if u, ok := wireUint(a); ok {
			out := reflect.New(pt).Elem()
			if out.OverflowUint(u) {
				return reflect.Value{}, fmt.Errorf("value %d overflows %v", u, pt)
			}
			out.SetUint(u)
			return out, nil
		}
	case reflect.Float32, reflect.Float64:
		if f, ok := a.(float64); ok {
			out := reflect.New(pt).Elem()
			// ±Inf and NaN pass: only a finite value too large for pt fails.
			if out.OverflowFloat(f) {
				return reflect.Value{}, fmt.Errorf("value %g overflows %v", f, pt)
			}
			out.SetFloat(f)
			return out, nil
		}
	case reflect.Interface:
		if at.Implements(pt) {
			return av, nil
		}
	case reflect.Slice:
		// []any → []T element-wise.
		if src, ok := a.([]any); ok {
			out := reflect.MakeSlice(pt, len(src), len(src))
			for i, el := range src {
				ev, err := ConvertArg(el, pt.Elem())
				if err != nil {
					return reflect.Value{}, fmt.Errorf("[%d]: %w", i, err)
				}
				out.Index(i).Set(ev)
			}
			return out, nil
		}
	case reflect.String:
		if s, ok := a.(string); ok {
			return reflect.ValueOf(s).Convert(pt), nil
		}
	}
	return reflect.Value{}, fmt.Errorf("%T not assignable to %v", a, pt)
}

// Args1 converts a call's one argument to A for a dispatcher written by
// hand, checked as a reflective call checks it. lead counts the parameters
// the dispatcher supplies itself ahead of args (a span context), as a
// reflective call does in its argument count and bad-argument numbers. It
// accepts exactly what ConvertArg accepts for a parameter of type A: a
// value that already is an A as it is.
func Args1[A any](method string, args []any, lead int) (a A, err error) {
	if err = CheckArity(method, args, lead, lead+1); err != nil {
		return a, err
	}
	if t, ok := args[0].(A); ok {
		return t, nil
	}
	rv, err := ConvertArg(args[0], reflect.TypeFor[A]())
	if err != nil {
		return a, badArg(method, lead, err)
	}
	return rv.Interface().(A), nil
}

// CheckArity is a reflective call's argument-count check for a method of n
// parameters, the first lead of which a hand-written dispatcher supplies.
func CheckArity(method string, args []any, lead, n int) error {
	if got := lead + len(args); got != n {
		return badCount(method, n, got)
	}
	return nil
}

// Result is a reflective call's reply for a method that returned (v, err),
// for a dispatcher written by hand: the one result, or err as KindApp.
func Result(method string, v any, err error) ([]any, error) {
	if err != nil {
		return nil, appError(method, err)
	}
	return []any{v}, nil
}

// NoSuchMethod is the error a reflective call of a method recv lacks
// reports.
func NoSuchMethod(recv any, method string) error {
	return &Error{Kind: KindNoSuchMethod, Method: method, Message: fmt.Sprintf("%T has no method %s", recv, method)}
}

func badCount(method string, want, got int) error {
	return &Error{Kind: KindBadArgs, Method: method, Message: fmt.Sprintf("wants %d args, got %d", want, got)}
}

func badArg(method string, i int, err error) error {
	return &Error{Kind: KindBadArgs, Method: method, Message: fmt.Sprintf("arg %d: %v", i, err)}
}

func appError(method string, cause error) error {
	return &Error{Kind: KindApp, Method: method, Message: cause.Error(), Cause: cause}
}

func wireInt(a any) (int64, bool) {
	switch v := a.(type) {
	case int64:
		return v, true
	case uint64:
		if v > 1<<63-1 {
			return 0, false
		}
		return int64(v), true
	default:
		return 0, false
	}
}

func wireUint(a any) (uint64, bool) {
	switch v := a.(type) {
	case uint64:
		return v, true
	case int64:
		if v < 0 {
			return 0, false
		}
		return uint64(v), true
	default:
		return 0, false
	}
}
