package admin_test

import (
	"testing"

	"obiwan/internal/admin"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/site"
	"obiwan/internal/transport"
)

type widget struct {
	Name string
	Next *objmodel.Ref
}

func (w *widget) Label() string { return w.Name }

func init() {
	objmodel.MustRegisterType("admin_test.widget", (*widget)(nil))
}

func TestReportReflectsReplication(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := site.New("server", net)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	mobile, err := site.New("mobile", net)
	if err != nil {
		t.Fatal(err)
	}
	defer mobile.Close()

	a := &widget{Name: "a"}
	b := &widget{Name: "b"}
	if a.Next, err = server.NewRef(b); err != nil {
		t.Fatal(err)
	}
	d, err := server.Export(a)
	if err != nil {
		t.Fatal(err)
	}
	ref := mobile.Engine().RefFromDescriptor(d, replication.DefaultSpec)
	replica, err := objmodel.Deref[*widget](ref)
	if err != nil {
		t.Fatal(err)
	}
	replica.Name = "a-edited"
	if err := mobile.MarkUpdated(replica); err != nil {
		t.Fatal(err)
	}

	// Inspect the server from the mobile, and vice versa, over RMI.
	serverReport, err := mobile.Admin("server").Report()
	if err != nil {
		t.Fatal(err)
	}
	if serverReport.Name != "server" || serverReport.Masters != 2 || serverReport.Replicas != 0 {
		t.Fatalf("server report: %+v", serverReport)
	}
	if serverReport.ProxyInsExported == 0 || serverReport.CallsServed == 0 {
		t.Fatalf("server counters: %+v", serverReport)
	}

	mobileReport, err := server.Admin("mobile").Report()
	if err != nil {
		t.Fatal(err)
	}
	if mobileReport.Replicas != 1 || mobileReport.DirtyReplicas != 1 {
		t.Fatalf("mobile report: %+v", mobileReport)
	}
	if len(mobileReport.Objects) != 1 {
		t.Fatalf("mobile objects: %+v", mobileReport.Objects)
	}
	obj := mobileReport.Objects[0]
	if obj.Role != "replica" || !obj.Dirty || obj.TypeName != "admin_test.widget" || obj.Provider == "" {
		t.Fatalf("object info: %+v", obj)
	}
}

func TestPing(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	s, err := site.New("pingable", net)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	probe, err := site.New("prober", net)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	c := admin.NewClient(probe.Runtime(), site.AdminRef("pingable"))
	name, err := c.Ping()
	if err != nil || name != "pingable" {
		t.Fatalf("ping: %q %v", name, err)
	}
}
