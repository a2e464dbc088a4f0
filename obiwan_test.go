package obiwan

import (
	"errors"
	"reflect"
	"testing"

	"obiwan/internal/invoke"
)

// memo is the facade test type.
type memo struct {
	Body string
	Next *Ref
}

func (m *memo) Read() string { return m.Body }

func (m *memo) Write(s string) { m.Body = s }

func init() {
	MustRegisterType("obiwan_test.memo", (*memo)(nil))
}

// newDeployment builds name server + two sites over a loopback simnet.
func newDeployment(t *testing.T) (*MemNetwork, *Site, *Site) {
	t.Helper()
	network := NewMemNetwork(Loopback)
	nsrt, err := NewRuntime(network, "ns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nsrt.Close() })
	if _, _, err := ServeNameServer(nsrt); err != nil {
		t.Fatal(err)
	}
	server, err := NewSite("server", network, WithNameServer("ns"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	mobile, err := NewSite("mobile", network, WithNameServer("ns"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mobile.Close() })
	return network, server, mobile
}

func TestQuickstartFlow(t *testing.T) {
	_, server, mobile := newDeployment(t)

	head := &memo{Body: "hello"}
	tail := &memo{Body: "world"}
	next, err := server.NewRef(tail)
	if err != nil {
		t.Fatal(err)
	}
	head.Next = next
	if err := server.Bind("memos/head", head); err != nil {
		t.Fatal(err)
	}

	ref, err := mobile.Lookup("memos/head")
	if err != nil {
		t.Fatal(err)
	}
	out, err := ref.Invoke("Read")
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "hello" {
		t.Fatalf("read: %#v", out[0])
	}
	m, err := Deref[*memo](ref)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Deref[*memo](m.Next)
	if err != nil {
		t.Fatal(err)
	}
	if w.Body != "world" {
		t.Fatalf("tail: %q", w.Body)
	}
}

func TestFacadeModesAndSpecs(t *testing.T) {
	_, server, mobile := newDeployment(t)
	head := &memo{Body: "x"}
	if err := server.Bind("m", head); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.LookupSpec("m", GetSpec{Mode: Transitive})
	if err != nil {
		t.Fatal(err)
	}
	ref.SetMode(ModeRemote)
	if _, err := ref.Invoke("Read"); err != nil {
		t.Fatal(err)
	}
	if ref.IsResolved() {
		t.Fatal("remote mode must not replicate")
	}
	ref.SetMode(ModeLocal)
	if _, err := ref.Invoke("Read"); err != nil {
		t.Fatal(err)
	}
	if !ref.IsResolved() {
		t.Fatal("local mode must replicate")
	}
}

func TestFacadeConflictPolicy(t *testing.T) {
	network := NewMemNetwork(Loopback)
	nsrt, err := NewRuntime(network, "ns")
	if err != nil {
		t.Fatal(err)
	}
	defer nsrt.Close()
	if _, _, err := ServeNameServer(nsrt); err != nil {
		t.Fatal(err)
	}
	server, err := NewSite("server", network,
		WithNameServer("ns"), WithPolicy(FirstWriterWins{}))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	mobile, err := NewSite("mobile", network, WithNameServer("ns"))
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()

	master := &memo{Body: "v1"}
	if err := server.Bind("m", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Deref[*memo](ref)
	if err != nil {
		t.Fatal(err)
	}
	// The master moves ahead; the stale put must be rejected.
	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	replica.Write("mine")
	err = mobile.Put(replica)
	var re *RemoteError
	if !errors.As(err, &re) || !re.IsApp() {
		t.Fatalf("stale put: %v", err)
	}
}

func TestFacadeTxn(t *testing.T) {
	_, server, mobile := newDeployment(t)
	master := &memo{Body: "v1"}
	if err := server.Bind("m", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Deref[*memo](ref)
	if err != nil {
		t.Fatal(err)
	}
	mgr := mobile.TxnManager()
	tx := mgr.Begin()
	if err := tx.Write(replica); err != nil {
		t.Fatal(err)
	}
	replica.Write("committed")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if master.Body != "committed" {
		t.Fatalf("master: %q", master.Body)
	}
}

func TestFacadeRegisterTypeErrors(t *testing.T) {
	if err := RegisterType("facade.bad", 42); err == nil {
		t.Fatal("non-struct must be rejected")
	}
	if err := RegisterType("obiwan_test.memo", (*memo)(nil)); err != nil {
		t.Fatalf("idempotent: %v", err)
	}
}

// TestFacadeRegistrationCallsDirect: the facade hands registration the
// sample's static type, so memo's methods take invoke's typed calls.
func TestFacadeRegistrationCallsDirect(t *testing.T) {
	p, err := invoke.PlanOf(reflect.TypeFor[*memo]())
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Reflective(); len(r) > 0 {
		t.Fatalf("methods on the reflective path: %v", r)
	}
}

func TestFacadeDissemination(t *testing.T) {
	_, server, mobile := newDeployment(t)
	master := &memo{Body: "v1"}
	if err := server.Bind("m", master); err != nil {
		t.Fatal(err)
	}
	ref, err := mobile.Lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	replica, err := Deref[*memo](ref)
	if err != nil {
		t.Fatal(err)
	}

	server.EnableDissemination().Subscribe("mobile")

	master.Write("v2")
	if err := server.MarkUpdated(master); err != nil {
		t.Fatal(err)
	}
	if replica.Body != "v2" {
		t.Fatalf("pushed replica: %q", replica.Body)
	}
}
