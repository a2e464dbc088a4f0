package txn

import (
	"errors"
	"testing"

	"obiwan/internal/consistency"
	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

type account struct {
	Owner   string
	Balance int64
}

func (a *account) Read() int64 { return a.Balance }

func (a *account) Deposit(v int64) { a.Balance += v }

func init() {
	objmodel.MustRegisterType("txn_test.account", (*account)(nil))
}

type fixture struct {
	net            *transport.MemNetwork
	master, client *replication.Engine
	clientMgr      *Manager
	acct           *account // master copy
}

func setup(t *testing.T, policy replication.Policy) *fixture {
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

	var mOpts []replication.Option
	if policy != nil {
		mOpts = append(mOpts, replication.WithPolicy(policy))
	}
	f := &fixture{
		net:    net,
		master: replication.NewEngine(mrt, heap.New(2), mOpts...),
		client: replication.NewEngine(crt, heap.New(1)),
	}
	f.clientMgr = NewManager(f.client)
	f.acct = &account{Owner: "alice", Balance: 100}
	if _, err := f.master.RegisterMaster(f.acct); err != nil {
		t.Fatal(err)
	}
	return f
}

// replica fetches the account replica at the client.
func (f *fixture) replica(t *testing.T) *account {
	t.Helper()
	d, err := f.master.ExportObject(f.acct)
	if err != nil {
		t.Fatal(err)
	}
	ref := f.client.RefFromDescriptor(d, replication.DefaultSpec)
	r, err := objmodel.Deref[*account](ref)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCommitAppliesWrites(t *testing.T) {
	f := setup(t, nil)
	r := f.replica(t)

	tx := f.clientMgr.Begin()
	if err := tx.Write(r); err != nil {
		t.Fatal(err)
	}
	r.Deposit(50)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.Status() != Committed {
		t.Fatalf("status: %v", tx.Status())
	}
	if f.acct.Balance != 150 {
		t.Fatalf("master balance: %d", f.acct.Balance)
	}
}

func TestRollbackRestoresPreimage(t *testing.T) {
	f := setup(t, nil)
	r := f.replica(t)

	tx := f.clientMgr.Begin()
	if err := tx.Write(r); err != nil {
		t.Fatal(err)
	}
	r.Deposit(999)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if r.Balance != 100 {
		t.Fatalf("balance after rollback: %d", r.Balance)
	}
	if tx.Status() != Aborted {
		t.Fatalf("status: %v", tx.Status())
	}
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after rollback: %v", err)
	}
	if f.acct.Balance != 100 {
		t.Fatalf("master must be untouched: %d", f.acct.Balance)
	}
}

func TestLocalValidationDetectsInterleaving(t *testing.T) {
	f := setup(t, nil)
	r := f.replica(t)

	tx := f.clientMgr.Begin()
	if err := tx.Write(r); err != nil {
		t.Fatal(err)
	}
	r.Deposit(10)

	// A refresh bumps the replica version underneath the transaction.
	f.acct.Deposit(1)
	if err := f.master.MarkUpdated(f.acct); err != nil {
		t.Fatal(err)
	}
	if err := f.client.Refresh(telemetry.SpanContext{}, r); err != nil {
		t.Fatal(err)
	}

	err := tx.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("commit: %v", err)
	}
	if tx.Status() != Aborted {
		t.Fatalf("status: %v", tx.Status())
	}
	// Pre-image restoration happened against the refreshed state... the
	// transaction's snapshot wins (it was taken before the refresh), so
	// the replica shows the pre-transaction value.
	if r.Balance != 100 {
		t.Fatalf("balance: %d", r.Balance)
	}
}

func TestMasterConflictRollsBack(t *testing.T) {
	f := setup(t, consistency.FirstWriterWins{})
	r := f.replica(t)

	// Another writer updates the master first.
	f.acct.Deposit(5)
	if err := f.master.MarkUpdated(f.acct); err != nil {
		t.Fatal(err)
	}

	tx := f.clientMgr.Begin()
	if err := tx.Write(r); err != nil {
		t.Fatal(err)
	}
	r.Deposit(50)
	err := tx.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("commit: %v", err)
	}
	if r.Balance != 100 {
		t.Fatalf("rolled-back balance: %d", r.Balance)
	}
	if f.acct.Balance != 105 {
		t.Fatalf("master: %d", f.acct.Balance)
	}
}

func TestDisconnectedCommitParksAndFlushes(t *testing.T) {
	f := setup(t, nil)
	r := f.replica(t)

	f.net.Disconnect("client", "master")

	tx := f.clientMgr.Begin()
	if err := tx.Write(r); err != nil {
		t.Fatal(err)
	}
	r.Deposit(25)
	if err := tx.Commit(); err != nil {
		t.Fatalf("disconnected commit must park, not fail: %v", err)
	}
	if tx.Status() != Pending {
		t.Fatalf("status: %v", tx.Status())
	}
	if len(f.clientMgr.Pending()) != 1 {
		t.Fatal("pending queue")
	}
	// Local state keeps the committed value.
	if r.Balance != 125 {
		t.Fatalf("local balance: %d", r.Balance)
	}
	// Flush while still offline: stays parked.
	if n, err := f.clientMgr.FlushPending(); n != 0 || err == nil {
		t.Fatalf("offline flush: %d %v", n, err)
	}

	f.net.Reconnect("client", "master")
	n, err := f.clientMgr.FlushPending()
	if err != nil || n != 1 {
		t.Fatalf("flush: %d %v", n, err)
	}
	if tx.Status() != Committed {
		t.Fatalf("status: %v", tx.Status())
	}
	if f.acct.Balance != 125 {
		t.Fatalf("master: %d", f.acct.Balance)
	}
	if len(f.clientMgr.Pending()) != 0 {
		t.Fatal("queue must drain")
	}
}

func TestPendingConflictAtFlushRollsBack(t *testing.T) {
	f := setup(t, consistency.FirstWriterWins{})
	r := f.replica(t)

	f.net.Disconnect("client", "master")
	tx := f.clientMgr.Begin()
	if err := tx.Write(r); err != nil {
		t.Fatal(err)
	}
	r.Deposit(25)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// While the client is away, the master moves on.
	f.acct.Deposit(1)
	if err := f.master.MarkUpdated(f.acct); err != nil {
		t.Fatal(err)
	}

	f.net.Reconnect("client", "master")
	n, err := f.clientMgr.FlushPending()
	if n != 0 || !errors.Is(err, ErrConflict) {
		t.Fatalf("flush: %d %v", n, err)
	}
	if tx.Status() != Aborted {
		t.Fatalf("status: %v", tx.Status())
	}
	if r.Balance != 100 {
		t.Fatalf("rolled-back balance: %d", r.Balance)
	}
	if f.acct.Balance != 101 {
		t.Fatalf("master: %d", f.acct.Balance)
	}
}

func TestReadOnlyTransactionCommitsWithoutRMI(t *testing.T) {
	f := setup(t, nil)
	r := f.replica(t)
	before := f.client.Runtime().Stats().CallsSent

	tx := f.clientMgr.Begin()
	if err := tx.Read(r); err != nil {
		t.Fatal(err)
	}
	_ = r.Read()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := f.client.Runtime().Stats().CallsSent; after != before {
		t.Fatalf("read-only commit made %d RMI calls", after-before)
	}
}

func TestWriteOnMasterSideTransaction(t *testing.T) {
	f := setup(t, nil)
	mgr := NewManager(f.master)
	tx := mgr.Begin()
	if err := tx.Write(f.acct); err != nil {
		t.Fatal(err)
	}
	f.acct.Deposit(7)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	e, _ := f.master.Heap().EntryOf(f.acct)
	if e.Version() != 2 {
		t.Fatalf("master version: %d", e.Version())
	}
}

func TestUnknownObjectRejected(t *testing.T) {
	f := setup(t, nil)
	tx := f.clientMgr.Begin()
	if err := tx.Write(&account{}); !errors.Is(err, heap.ErrUnknownObject) {
		t.Fatalf("unknown write: %v", err)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Active: "active", Committed: "committed",
		Pending: "pending", Aborted: "aborted", Status(9): "status(9)",
	} {
		if s.String() != want {
			t.Fatalf("%d: %q", s, s.String())
		}
	}
}
