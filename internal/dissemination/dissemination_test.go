package dissemination

import (
	"errors"
	"sync"
	"testing"

	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

type ticker struct {
	Symbol string
	Price  int64
}

func (t *ticker) Quote() int64 { return t.Price }

func init() {
	objmodel.MustRegisterType("dissem_test.ticker", (*ticker)(nil))
}

type fixture struct {
	net    *transport.MemNetwork
	master *replication.Engine
	client *replication.Engine
	pub    *Publisher
	app    *Applier
	tick   *ticker
}

func setup(t *testing.T) *fixture {
	t.Helper()
	net := transport.NewMemNetwork(netsim.Loopback)
	mrt, err := rmi.NewRuntime(net, "master")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mrt.Close() })
	crt, err := rmi.NewRuntime(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = crt.Close() })

	f := &fixture{net: net}
	f.master = replication.NewEngine(mrt, heap.New(2))
	f.client = replication.NewEngine(crt, heap.New(1))
	f.app = NewApplier(f.client)

	// Deliver via a real RMI sink at the client.
	sink := &updateSink{app: f.app}
	sinkRef, err := crt.Export(sink)
	if err != nil {
		t.Fatal(err)
	}
	f.pub = NewPublisher(f.master, func(site string, u *Update) error {
		if site != "client" {
			return errors.New("unknown site")
		}
		_, err := mrt.Call(sinkRef, "Push", u)
		return err
	})
	f.master.SetPolicy(f.pub)

	f.tick = &ticker{Symbol: "OBI", Price: 10}
	if _, err := f.master.RegisterMaster(f.tick); err != nil {
		t.Fatal(err)
	}
	return f
}

// replicate fetches the ticker at the client.
func (f *fixture) replicate(t *testing.T) *ticker {
	t.Helper()
	d, err := f.master.ExportObject(f.tick)
	if err != nil {
		t.Fatal(err)
	}
	ref := f.client.RefFromDescriptor(d, replication.DefaultSpec)
	r, err := objmodel.Deref[*ticker](ref)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

type updateSink struct {
	mu  sync.Mutex
	app *Applier
	n   int
}

func (s *updateSink) Push(u *Update) error {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	return s.app.Apply(u)
}

func (s *updateSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func TestPushDelivery(t *testing.T) {
	f := setup(t)
	r := f.replicate(t)
	f.pub.Subscribe("client")

	f.tick.Price = 11
	if err := f.master.MarkUpdated(f.tick); err != nil {
		t.Fatal(err)
	}
	if r.Price != 11 {
		t.Fatalf("replica price after push: %d", r.Price)
	}
	e, _ := f.client.Heap().EntryOf(r)
	if e.Version() != 2 {
		t.Fatalf("replica version: %d", e.Version())
	}
}

func TestOfflineSubscriberCatchesUp(t *testing.T) {
	f := setup(t)
	r := f.replicate(t)
	f.pub.Subscribe("client")

	f.net.Disconnect("master", "client")
	for i := int64(1); i <= 3; i++ {
		f.tick.Price = 10 + i
		if err := f.master.MarkUpdated(f.tick); err != nil {
			t.Fatal(err)
		}
	}
	if r.Price != 10 {
		t.Fatalf("offline replica mutated: %d", r.Price)
	}
	if f.pub.Lag("client") != 3 {
		t.Fatalf("lag: %d", f.pub.Lag("client"))
	}

	f.net.Reconnect("master", "client")
	delivered := f.pub.Flush()
	if delivered != 3 {
		t.Fatalf("flush delivered %d", delivered)
	}
	if r.Price != 13 {
		t.Fatalf("replica after catch-up: %d", r.Price)
	}
	if f.pub.Lag("client") != 0 {
		t.Fatalf("lag after flush: %d", f.pub.Lag("client"))
	}
}

func TestPullPath(t *testing.T) {
	f := setup(t)
	r := f.replicate(t)
	// No subscription: the client pulls instead.
	for i := int64(1); i <= 4; i++ {
		f.tick.Price = 10 + i
		if err := f.master.MarkUpdated(f.tick); err != nil {
			t.Fatal(err)
		}
	}
	updates, err := f.pub.Pull(f.app.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 4 {
		t.Fatalf("pulled %d", len(updates))
	}
	for i := range updates {
		if err := f.app.Apply(&updates[i]); err != nil {
			t.Fatal(err)
		}
	}
	if r.Price != 14 {
		t.Fatalf("replica after pull: %d", r.Price)
	}
	// Second pull is empty: sequence bookkeeping advanced.
	if got, err := f.pub.Pull(f.app.LastSeq()); err != nil || len(got) != 0 {
		t.Fatalf("second pull: %d updates, err %v", len(got), err)
	}
}

func TestDuplicateAndStaleUpdatesIgnored(t *testing.T) {
	f := setup(t)
	r := f.replicate(t)
	f.tick.Price = 20
	if err := f.master.MarkUpdated(f.tick); err != nil {
		t.Fatal(err)
	}
	updates, err := f.pub.Pull(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 1 {
		t.Fatalf("log: %d", len(updates))
	}
	if err := f.app.Apply(&updates[0]); err != nil {
		t.Fatal(err)
	}
	if r.Price != 20 {
		t.Fatalf("applied: %d", r.Price)
	}
	r.Price = 99 // local divergence
	if err := f.app.Apply(&updates[0]); err != nil {
		t.Fatal(err)
	}
	if r.Price != 99 {
		t.Fatal("duplicate update must be ignored (version not newer)")
	}
}

func TestUpdateForUnknownObjectSkipped(t *testing.T) {
	f := setup(t)
	// Client never replicated the ticker.
	f.tick.Price = 30
	if err := f.master.MarkUpdated(f.tick); err != nil {
		t.Fatal(err)
	}
	updates, err := f.pub.Pull(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.app.Apply(&updates[0]); err != nil {
		t.Fatal(err)
	}
	if f.client.Heap().Len() != 0 {
		t.Fatal("apply must not conjure replicas")
	}
}

func TestLogBound(t *testing.T) {
	f := setup(t)
	f.pub.SetMaxLog(2)
	for i := int64(1); i <= 5; i++ {
		f.tick.Price = 10 + i
		if err := f.master.MarkUpdated(f.tick); err != nil {
			t.Fatal(err)
		}
	}
	// Seqs 1..5 published, 1..3 truncated. Pulling from inside the window
	// works; pulling from behind it is the typed too-far-behind error.
	if got, err := f.pub.Pull(3); err != nil || len(got) != 2 {
		t.Fatalf("bounded log kept %d, err %v", len(got), err)
	}
	if _, err := f.pub.Pull(0); !errors.Is(err, ErrTooFarBehind) {
		t.Fatalf("pull behind the window: %v", err)
	}
}

func TestPullTruncationBoundary(t *testing.T) {
	f := setup(t)
	r := f.replicate(t)
	f.pub.SetMaxLog(2)
	for i := int64(1); i <= 6; i++ {
		f.tick.Price = 10 + i
		if err := f.master.MarkUpdated(f.tick); err != nil {
			t.Fatal(err)
		}
	}
	// Window is (4, 6]; floor is 4.
	if _, err := f.pub.Pull(4); err != nil {
		t.Fatalf("pull exactly at the floor must succeed: %v", err)
	}
	_, err := f.pub.Pull(3)
	var tfb *TooFarBehindError
	if !errors.As(err, &tfb) {
		t.Fatalf("pull below the floor: %v", err)
	}
	if tfb.Since != 3 || tfb.Oldest != 5 {
		t.Fatalf("boundary payload: since=%d oldest=%d", tfb.Since, tfb.Oldest)
	}
	if !errors.Is(err, ErrTooFarBehind) {
		t.Fatal("typed error must match ErrTooFarBehind")
	}

	// Full-state resync: read the frontier first, then refresh the
	// replica, then resume pulling from the frontier. Nothing in the
	// truncated gap is lost — the refresh covers it.
	frontier := f.pub.Frontier()
	if err := f.client.Refresh(telemetry.SpanContext{}, r); err != nil {
		t.Fatal(err)
	}
	if r.Price != 16 {
		t.Fatalf("refreshed replica: %d", r.Price)
	}
	got, err := f.pub.Pull(frontier)
	if err != nil || len(got) != 0 {
		t.Fatalf("post-resync pull: %d updates, err %v", len(got), err)
	}
	// Later updates flow through the pull path again.
	f.tick.Price = 42
	if err := f.master.MarkUpdated(f.tick); err != nil {
		t.Fatal(err)
	}
	got, err = f.pub.Pull(frontier)
	if err != nil || len(got) != 1 {
		t.Fatalf("pull after resync: %d updates, err %v", len(got), err)
	}
	if err := f.app.Apply(&got[0]); err != nil {
		t.Fatal(err)
	}
	if r.Price != 42 {
		t.Fatalf("replica after resumed pulls: %d", r.Price)
	}
}

func TestSubscribeBookkeeping(t *testing.T) {
	f := setup(t)
	f.pub.Subscribe("client")
	f.pub.Subscribe("client") // idempotent
	f.pub.Subscribe("")       // ignored
	if got := f.pub.Subscribers(); len(got) != 1 || got[0] != "client" {
		t.Fatalf("subscribers: %v", got)
	}
	f.pub.Unsubscribe("client")
	if got := f.pub.Subscribers(); len(got) != 0 {
		t.Fatalf("after unsubscribe: %v", got)
	}
	if f.pub.Lag("ghost") != 0 {
		t.Fatal("unknown site lag")
	}
}

func TestPublisherComposesBasePolicy(t *testing.T) {
	f := setup(t)
	f.pub.Base = rejectAll{}
	if err := f.pub.ApplyPut(1, 1, 1); err == nil {
		t.Fatal("base policy must decide acceptance")
	}
}

type rejectAll struct{}

func (rejectAll) ApplyPut(objmodel.OID, uint64, uint64) error {
	return errors.New("rejected")
}
