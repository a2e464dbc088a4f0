package replication

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/heap"
	"obiwan/internal/invoke"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/raceflag"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
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
// cause). The method is left out: a wire fault does not carry it, and a
// protocol call's reference is the Go method of another name.
func describe(err error) string {
	var ie *invoke.Error
	if errors.As(err, &ie) {
		return fmt.Sprintf("kind %d message %q cause %v", ie.Kind, ie.Message, ie.Cause)
	}
	if err != nil {
		return fmt.Sprintf("%T %v", err, err)
	}
	return "ok"
}

// protocolMethods maps each wire name of the proxy-in's own protocol to the
// exported Go method that answers it reflectively.
var protocolMethods = map[string]string{"get": "Get", "put": "Put", "putCluster": "PutCluster", "version": "Version"}

// TestDispatchMatchesReflectiveSkeleton: the proxy-in's own dispatch
// answers one table of argument vectors as its reference does: the same
// results, and the same error kind, message and cause, which are what the
// skeleton makes the wire fault of. A protocol name's reference is a
// reflective skeleton's call of the Go method of the same name on the same
// proxy-in (invoke's plan, the dispatch every other exported object gets);
// every other name's is invoke.Call of that name on the master object.
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
		{"get", []any{spec}},
		{"get", []any{nil}},
		{"get", []any{*spec}},
		{"get", []any{"spec"}},
		{"get", []any{int64(1)}},
		{"get", []any{spec, "s1"}}, // a revision-3 caller named itself here
		{"get", nil},
		{"put", []any{put}},
		{"put", []any{nil}},
		{"put", []any{&PutRequest{OID: oid + 1}}},
		{"put", []any{spec}},
		{"put", []any{*put}},
		{"put", []any{put, put}},
		{"put", nil},
		{"putCluster", []any{&ClusterPutRequest{Members: []PutRequest{*put}}}},
		{"putCluster", []any{&ClusterPutRequest{}}},
		{"putCluster", []any{nil}},
		{"putCluster", []any{put}},
		{"putCluster", nil},
		{"version", nil},
		{"version", []any{int64(1)}},
		{"Title", nil},
		{"Title", []any{}},
		{"Title", []any{"extra"}},
		{"SetBody", []any{[]byte("new body")}},
		{"SetBody", []any{"not bytes"}},
		{"Missing", nil},
		{"Get", []any{spec}}, // a revision-4 caller's demand
		{"Put", []any{put}},
		{"PutCluster", nil},
		{"Version", nil},
		{"Invoke", []any{"Title", nil}}, // a revision-4 caller's envelope
		{"Dispatch", nil},
		{"Idempotent", []any{"get"}},
		{"", nil},
	}
	sc := telemetry.SpanContext{TraceID: 7, SpanID: 9}
	for _, c := range cases {
		typed := freshProxyIn(t)
		typedRes, typedErr := typed.Dispatch(sc, time.Time{}, "s1", c.method, c.args)

		reference := freshProxyIn(t)
		var refRes []any
		var refErr error
		if name, ok := protocolMethods[c.method]; ok {
			plan, err := invoke.PlanOf(reflect.TypeOf(reference))
			if err != nil {
				t.Fatal(err)
			}
			refRes, refErr = invoke.CallWithLead(plan, reflect.ValueOf(reference), name, sc, c.args)
		} else {
			refRes, refErr = invoke.Call(reference.entry.Obj, c.method, c.args)
		}

		got, want := describe(typedErr), describe(refErr)
		if got != want || !reflect.DeepEqual(typedRes, refRes) {
			t.Errorf("%s%v:\n  Dispatch:  %s %+v\n  reference: %s %+v", c.method, c.args, got, typedRes, want, refRes)
		}
	}
}

// TestDispatchAnswersEveryProxyInMethod: each exported method of ProxyIn has
// a wire name Dispatch answers (a wrong argument count is a bad-args error,
// as it is for the reflective skeleton, not a missing method), so a method
// added to ProxyIn cannot be left out of it. Invoke's wire names are the
// master's own methods: every name that is not a protocol name, the proxy-in's
// Go names included, reaches the master, and one it lacks is a missing
// method of the master's type.
func TestDispatchAnswersEveryProxyInMethod(t *testing.T) {
	p := freshProxyIn(t)
	plan, err := invoke.PlanOf(reflect.TypeOf(p))
	if err != nil {
		t.Fatal(err)
	}
	wireNames := map[string]string{}
	for wireName, name := range protocolMethods {
		wireNames[name] = wireName
	}
	junk := make([]any, 9)
	pt := reflect.TypeOf(p)
	for i := 0; i < pt.NumMethod(); i++ {
		name := pt.Method(i).Name
		switch name {
		case "Dispatch", "Idempotent":
			continue // the skeleton and its declaration, not remote methods
		case "Invoke":
			res, err := p.Dispatch(telemetry.SpanContext{}, time.Time{}, "s1", "Title", nil)
			if want := p.entry.Obj.(*doc).Title(); err != nil || len(res) != 1 || res[0] != want {
				t.Errorf("Invoke as Title: %v %v, want %q", res, err, want)
			}
			continue
		}
		wireName, ok := wireNames[name]
		if !ok {
			t.Errorf("ProxyIn.%s has no wire name", name)
			continue
		}
		_, err := p.Dispatch(telemetry.SpanContext{}, time.Time{}, "s1", wireName, junk)
		_, refErr := invoke.CallWithLead(plan, reflect.ValueOf(p), name, telemetry.SpanContext{}, junk)
		var ie *invoke.Error
		if !errors.As(err, &ie) || ie.Kind != invoke.KindBadArgs || describe(err) != describe(refErr) {
			t.Errorf("%s as %s with %d args: %v, reflective %v", name, wireName, len(junk), err, refErr)
		}
	}
	for _, name := range []string{"Get", "Put", "PutCluster", "Version", "Invoke", "Dispatch", "Idempotent", "Touch", "GET"} {
		_, err := p.Dispatch(telemetry.SpanContext{}, time.Time{}, "s1", name, nil)
		var ie *invoke.Error
		if !errors.As(err, &ie) || ie.Kind != invoke.KindNoSuchMethod || !strings.Contains(ie.Message, "*replication.doc") {
			t.Errorf("%s: %v, want no such method of *replication.doc", name, err)
		}
	}
}

// kv is a master whose methods share their Go names with the proxy-in's
// own: a key-value store.
type kv struct {
	mu   sync.Mutex
	Vals map[string]string
	Puts int64
}

func (s *kv) Get(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Vals[key]
}

func (s *kv) Put(key, val string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Vals[key] = val
	s.Puts++
}

func (s *kv) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Puts
}

func (s *kv) Invoke(method string) string { return "kv." + method }

func init() {
	objmodel.MustRegisterType("repl_test.kv", (*kv)(nil))
}

// TestApplicationMethodsNamedLikeTheProxyIns: a master whose methods are
// named Get, Put, Version and Invoke is reached by each of them in
// ModeRemote, over mem and TCP, and a method with no results answers an
// empty, non-nil list, as it did inside the Invoke envelope. A method the
// master lacks fails as no such method, naming the master's type.
func TestApplicationMethodsNamedLikeTheProxyIns(t *testing.T) {
	forEachNetwork(t, func(t *testing.T, kind string) {
		sites, _ := elideSites(t, kind, 2)
		mobile, master := sites[0], sites[1]
		store := &kv{Vals: map[string]string{}}
		desc, err := master.engine.ExportObject(store)
		if err != nil {
			t.Fatal(err)
		}
		ref := mobile.engine.RefFromDescriptor(desc, DefaultSpec)
		ref.SetMode(objmodel.ModeRemote)
		for _, c := range []struct {
			method string
			args   []any
			want   []any
		}{
			{"Put", []any{"k", "v"}, []any{}},
			{"Get", []any{"k"}, []any{"v"}},
			{"Version", nil, []any{int64(1)}},
			{"Invoke", []any{"Get"}, []any{"kv.Get"}},
		} {
			got, err := ref.Invoke(c.method, c.args...)
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s%v: %#v %v, want %#v", c.method, c.args, got, err, c.want)
			}
		}
		if v := store.Get("k"); v != "v" || store.Version() != 1 {
			t.Errorf("the master holds %q after %d puts, want \"v\" after 1", v, store.Version())
		}
		if n := mobile.heap.Len(); n != 0 {
			t.Errorf("ModeRemote replicated %d objects", n)
		}
		_, err = ref.Invoke("Delete", "k")
		var re *rmi.RemoteError
		if !errors.As(err, &re) || re.Code != wire.FaultNoSuchMethod || !strings.Contains(re.Message, "*replication.kv has no method Delete") {
			t.Errorf("Delete: %v, want no such method of *replication.kv", err)
		}
	})
}

// TestApplicationCallIsReplayedNotRerun: an application call is
// exactly-once whatever its name. The reply of a master's Put, and then of
// its Get, is lost; each retry is answered from the dedupe table and the
// method runs once. A demand (get) is the proxy-in's, and idempotent: its
// retry runs again and nothing is replayed for it. Virtual time makes the
// order certain.
func TestApplicationCallIsReplayedNotRerun(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)
	clock.Run(func() {
		server, err := rmi.NewRuntime(net, "server")
		if err != nil {
			t.Error(err)
			return
		}
		defer server.Close()
		client, err := rmi.NewRuntime(net, "client", rmi.WithRetryPolicy(rmi.RetryPolicy{
			MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
			Multiplier: 2, PerTryTimeout: time.Second}))
		if err != nil {
			t.Error(err)
			return
		}
		defer client.Close()
		master, mobile := NewEngine(server, heap.New(2)), NewEngine(client, heap.New(1))
		store := &kv{Vals: map[string]string{}}
		desc, err := master.ExportObject(store)
		if err != nil {
			t.Error(err)
			return
		}
		ref := mobile.RefFromDescriptor(desc, DefaultSpec)
		ref.SetMode(objmodel.ModeRemote)
		// lostOnce makes call, whose first reply is lost, and checks that it
		// was retried once and answered from the dedupe table dups times in
		// all.
		lostOnce := func(what string, dups uint64, call func() error) {
			net.SetFaultSchedule("server", "client", netsim.NewFaultSchedule(
				netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
			))
			retries := client.Stats().Retries
			if err := call(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
			if r := client.Stats().Retries - retries; r != 1 {
				t.Errorf("%s was retried %d times, want 1", what, r)
			}
			if got := server.Stats().DupsSuppressed; got != dups {
				t.Errorf("after %s, %d calls answered from the dedupe table, want %d", what, got, dups)
			}
		}
		lostOnce("Put", 1, func() error { _, err := ref.Invoke("Put", "k", "v"); return err })
		if n := store.Version(); n != 1 {
			t.Errorf("the retried Put ran %d times, want 1", n)
		}
		lostOnce("Get", 2, func() error {
			res, err := ref.Invoke("Get", "k")
			if err == nil && !reflect.DeepEqual(res, []any{"v"}) {
				err = fmt.Errorf("answered %v, want [v]", res)
			}
			return err
		})
		lostOnce("get", 2, func() error { _, err := ref.Resolve(); return err })
	})
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
