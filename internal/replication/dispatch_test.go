package replication

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/invoke"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// freshProxyIn builds a master site holding a two-doc chain and returns the
// proxy-in of its head, as the engine would export it. Two calls build two
// identical worlds (same site name, ids and objects), so one call may apply
// a put to each and their replies compare equal.
func freshProxyIn(t *testing.T) *ProxyIn {
	t.Helper()
	master := newTestSite(t, transport.NewMemNetwork(netsim.Loopback), "s2", 2)
	docs := buildChain(t, master, 2, 8)
	entry, _ := master.heap.EntryOf(docs[0])
	return &ProxyIn{eng: master.engine, entry: entry}
}

// describe renders what the skeleton turns an error into (kind, message,
// cause).
func describe(err error) string {
	var ie *invoke.Error
	if errors.As(err, &ie) {
		return fmt.Sprintf("kind %d method %q message %q cause %v", ie.Kind, ie.Method, ie.Message, ie.Cause)
	}
	if err != nil {
		return fmt.Sprintf("%T %v", err, err)
	}
	return "ok"
}

// TestDispatchMatchesReflectiveSkeleton: the proxy-in's own dispatch and a
// reflective skeleton of the same proxy-in (invoke's plan, the dispatch
// every other exported object gets) answer one table of argument vectors
// alike: the same results, and the same error kind and message, which are
// what the skeleton makes the wire fault of.
func TestDispatchMatchesReflectiveSkeleton(t *testing.T) {
	probe := freshProxyIn(t)
	oid, version := uint64(probe.entry.OID), probe.entry.Version()
	state, err := objmodel.CaptureState(codec.DefaultRegistry(), probe.entry.Obj)
	if err != nil {
		t.Fatal(err)
	}
	put := &PutRequest{OID: oid, BaseVersion: version, State: state}
	spec := &GetSpec{Mode: Incremental, Batch: 2}
	cases := []struct {
		method string
		args   []any
	}{
		{"Get", []any{spec}},
		{"Get", []any{nil}},
		{"Get", []any{*spec}},
		{"Get", []any{"spec"}},
		{"Get", []any{int64(1)}},
		{"Get", []any{spec, "s1"}}, // a revision-3 caller named itself here
		{"Get", nil},
		{"Put", []any{put}},
		{"Put", []any{nil}},
		{"Put", []any{&PutRequest{OID: oid + 1}}},
		{"Put", []any{spec}},
		{"Put", []any{*put}},
		{"Put", []any{put, put}},
		{"Put", nil},
		{"PutCluster", []any{&ClusterPutRequest{Members: []PutRequest{*put}}}},
		{"PutCluster", []any{&ClusterPutRequest{}}},
		{"PutCluster", []any{nil}},
		{"PutCluster", []any{put}},
		{"PutCluster", nil},
		{"Invoke", []any{"Title", nil}},
		{"Invoke", []any{"Title", []any{}}},
		{"Invoke", []any{"SetBody", []any{[]byte("new body")}}},
		{"Invoke", []any{"SetBody", []any{"not bytes"}}},
		{"Invoke", []any{"Missing", nil}},
		{"Invoke", []any{int64(7), nil}},
		{"Invoke", []any{nil, nil}},
		{"Invoke", []any{"Title", "not a slice"}},
		{"Invoke", []any{"Title"}},
		{"Version", nil},
		{"Version", []any{int64(1)}},
		{"Nope", nil},
		{"get", []any{spec}},
		{"put", []any{put}},
		{"", nil},
	}
	sc := telemetry.SpanContext{TraceID: 7, SpanID: 9}
	for _, c := range cases {
		typed := freshProxyIn(t)
		typedRes, typedErr := typed.Dispatch(sc, time.Time{}, "s1", c.method, c.args)

		reflective := freshProxyIn(t)
		plan, err := invoke.PlanOf(reflect.TypeOf(reflective))
		if err != nil {
			t.Fatal(err)
		}
		refRes, refErr := invoke.CallWithLead(plan, reflect.ValueOf(reflective), c.method, sc, c.args)

		got, want := describe(typedErr), describe(refErr)
		if got != want || !reflect.DeepEqual(typedRes, refRes) {
			t.Errorf("%s%v:\n  Dispatch:   %s %+v\n  reflective: %s %+v", c.method, c.args, got, typedRes, want, refRes)
		}
	}
}

// TestDispatchAnswersEveryProxyInMethod: Dispatch answers each exported
// method of ProxyIn (a wrong argument count is a bad-args error, as it is
// for the reflective skeleton, not a missing method), and nothing else, so a
// method added to ProxyIn cannot be left out of it.
func TestDispatchAnswersEveryProxyInMethod(t *testing.T) {
	p := freshProxyIn(t)
	plan, err := invoke.PlanOf(reflect.TypeOf(p))
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]any, 9)
	pt := reflect.TypeOf(p)
	for i := 0; i < pt.NumMethod(); i++ {
		name := pt.Method(i).Name
		if name == "Dispatch" || name == "Idempotent" {
			continue // the skeleton and its declaration, not remote methods
		}
		_, err := p.Dispatch(telemetry.SpanContext{}, time.Time{}, "s1", name, junk)
		_, refErr := invoke.CallWithLead(plan, reflect.ValueOf(p), name, telemetry.SpanContext{}, junk)
		var ie *invoke.Error
		if !errors.As(err, &ie) || ie.Kind != invoke.KindBadArgs || describe(err) != describe(refErr) {
			t.Errorf("%s with %d args: %v, reflective %v", name, len(junk), err, refErr)
		}
	}
	for _, name := range []string{"Dispatch", "Idempotent", "put", "Touch", "GET"} {
		_, err := p.Dispatch(telemetry.SpanContext{}, time.Time{}, "s1", name, nil)
		var ie *invoke.Error
		if !errors.As(err, &ie) || ie.Kind != invoke.KindNoSuchMethod {
			t.Errorf("%s: %v, want no such method", name, err)
		}
	}
}

// TestProxyInExportAllocationsPinned: a proxy-in is its own skeleton, so
// exporting one builds no method table (a reflective export of the same
// object made its skeleton and a span-context map, 3 allocations).
func TestProxyInExportAllocationsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not repeatable under the race detector")
	}
	p := freshProxyIn(t)
	rt := p.eng.rt
	got := testing.AllocsPerRun(1000, func() {
		ref, err := rt.Export(p)
		if err != nil {
			t.Fatal(err)
		}
		rt.Unexport(ref.ID)
	})
	if got > 0 {
		t.Fatalf("exporting a proxy-in allocates %.2f objects, pinned at 0", got)
	}
}
