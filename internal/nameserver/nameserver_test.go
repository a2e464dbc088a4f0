package nameserver

import (
	"errors"
	"reflect"
	"testing"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	net := transport.NewMemNetwork(netsim.Loopback)
	srt, err := rmi.NewRuntime(net, "ns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srt.Close() })
	server, ref, err := Serve(srt)
	if err != nil {
		t.Fatal(err)
	}
	if ref != WellKnownRef("ns") {
		t.Fatalf("first export should land at the well-known id: %v", ref)
	}
	crt, err := rmi.NewRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = crt.Close() })
	return server, NewClient(crt, WellKnownRef("ns"))
}

func desc(oid uint64) replication.Descriptor {
	return descAt("s2", oid)
}

func descAt(addr transport.Addr, oid uint64) replication.Descriptor {
	return replication.Descriptor{
		Provider: rmi.RemoteRef{Addr: addr, ID: rmi.ObjID(oid)},
		OID:      oid,
		TypeName: "test.doc",
	}
}

func TestBindLookupRoundTrip(t *testing.T) {
	_, c := newPair(t)
	want := desc(42)
	if err := c.Bind("docs/head", want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("docs/head")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Group) == 0 {
		got.Group = nil // wire round-trip decodes absent groups as empty
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lookup: %+v want %+v", got, want)
	}
}

func TestBindConflict(t *testing.T) {
	_, c := newPair(t)
	if err := c.Bind("x", desc(1)); err != nil {
		t.Fatal(err)
	}
	// A different site may not steal the name.
	err := c.Bind("x", descAt("s3", 2))
	var re *rmi.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want remote error, got %v", err)
	}
	// Rebind replaces.
	if err := c.Rebind("x", desc(2)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup("x")
	if err != nil || got.OID != 2 {
		t.Fatalf("after rebind: %+v %v", got, err)
	}
}

// TestBindOwnerCanRebind covers the restart path: a site that crashed and
// recovered re-binds names it already owns. The provider address is the
// stable site identity, so Bind from the same address replaces instead of
// failing ErrAlreadyBound (the dead incarnation could never unbind).
func TestBindOwnerCanRebind(t *testing.T) {
	_, c := newPair(t)
	if err := c.Bind("x", desc(1)); err != nil {
		t.Fatal(err)
	}
	// The reborn owner's proxy-in may sit at a different object id.
	if err := c.Bind("x", desc(9)); err != nil {
		t.Fatalf("owner re-bind after restart: %v", err)
	}
	got, err := c.Lookup("x")
	if err != nil || got.OID != 9 {
		t.Fatalf("after owner re-bind: %+v %v", got, err)
	}
}

// TestBindGroupMemberCanRebind covers leader failover in a master group:
// the binding was made by the old leader, and the new leader — a different
// address, but listed in the binding's Group — takes the name over.
func TestBindGroupMemberCanRebind(t *testing.T) {
	_, c := newPair(t)
	group := []transport.Addr{"g1", "g2", "g3"}
	first := descAt("g1", 1)
	first.Group = group
	if err := c.Bind("x", first); err != nil {
		t.Fatal(err)
	}
	// Another member of the recorded group may re-bind under its own
	// address...
	second := descAt("g2", 1)
	second.Group = group
	if err := c.Bind("x", second); err != nil {
		t.Fatalf("group member re-bind: %v", err)
	}
	got, err := c.Lookup("x")
	if err != nil || got.Provider.Addr != "g2" {
		t.Fatalf("after member re-bind: %+v %v", got, err)
	}
	// ...including a member whose own descriptor names the current
	// provider in ITS group (the symmetric check), even if the existing
	// binding carried no group list.
	if err := c.Rebind("x", descAt("g2", 1)); err != nil {
		t.Fatal(err)
	}
	third := descAt("g3", 1)
	third.Group = group
	if err := c.Bind("x", third); err != nil {
		t.Fatalf("symmetric group re-bind: %v", err)
	}
	// A site outside the group still may not steal the name.
	err = c.Bind("x", descAt("intruder", 2))
	var re *rmi.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("outsider bind must fail remotely, got %v", err)
	}
}

func TestLookupMissing(t *testing.T) {
	_, c := newPair(t)
	_, err := c.Lookup("ghost")
	var re *rmi.RemoteError
	if !errors.As(err, &re) || !re.IsApp() {
		t.Fatalf("missing lookup: %v", err)
	}
}

func TestUnbind(t *testing.T) {
	_, c := newPair(t)
	if err := c.Bind("x", desc(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Unbind("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("x"); err == nil {
		t.Fatal("lookup after unbind must fail")
	}
	if err := c.Unbind("x"); err == nil {
		t.Fatal("double unbind must fail")
	}
}

func TestList(t *testing.T) {
	_, c := newPair(t)
	names, err := c.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("empty list: %v %v", names, err)
	}
	for _, n := range []string{"b", "a", "c"} {
		if err := c.Bind(n, desc(1)); err != nil {
			t.Fatal(err)
		}
	}
	names, err = c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("list: %v", names)
	}
}

func TestServerValidation(t *testing.T) {
	s := NewServer()
	if err := s.Bind("", &replication.Descriptor{}); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if err := s.Bind("x", nil); err == nil {
		t.Fatal("nil descriptor must be rejected")
	}
	if err := s.Rebind("", nil); err == nil {
		t.Fatal("rebind validation")
	}
}

func TestEndToEndReplicationViaNameServer(t *testing.T) {
	// Full bootstrap: S2 exports a graph root and binds it; S1 looks it up
	// and replicates through the descriptor.
	net := transport.NewMemNetwork(netsim.Loopback)
	nsrt, err := rmi.NewRuntime(net, "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrt.Close()
	if _, _, err := Serve(nsrt); err != nil {
		t.Fatal(err)
	}

	s2 := newSite(t, net, "s2", 2)
	s1 := newSite(t, net, "s1", 1)

	head := &nsDoc{Name: "root"}
	d, err := s2.eng.ExportObject(head)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewClient(s2.rt, WellKnownRef("ns")).Bind("graph/root", d); err != nil {
		t.Fatal(err)
	}

	got, err := NewClient(s1.rt, WellKnownRef("ns")).Lookup("graph/root")
	if err != nil {
		t.Fatal(err)
	}
	ref := s1.eng.RefFromDescriptor(got, replication.DefaultSpec)
	res, err := ref.Invoke("Title")
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "root" {
		t.Fatalf("title: %#v", res[0])
	}
}

type nsDoc struct {
	Name string
}

func (d *nsDoc) Title() string { return d.Name }

type site struct {
	rt  *rmi.Runtime
	eng *replication.Engine
}

func newSite(t *testing.T, net transport.Network, name string, id uint16) *site {
	t.Helper()
	rt, err := rmi.NewRuntime(net, transport.Addr(name))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return &site{rt: rt, eng: replication.NewEngine(rt, newHeap(id))}
}

func newHeap(id uint16) *heap.Heap { return heap.New(id) }

func init() {
	objmodel.MustRegisterType("nameserver_test.doc", (*nsDoc)(nil))
}
