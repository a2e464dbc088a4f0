package site

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"obiwan/internal/codec"
	"obiwan/internal/consistency"
	"obiwan/internal/eventual"
	"obiwan/internal/heap"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/rmi"
	"obiwan/internal/transport"
	"obiwan/internal/wal"
)

// buildDurableChain registers a 3-note chain at s, wires it, marks the
// wiring updated (so it is journaled), and binds the head under "chain".
func buildDurableChain(t *testing.T, s *Site) []*note {
	t.Helper()
	notes := make([]*note, 3)
	for i := range notes {
		notes[i] = &note{Text: fmt.Sprintf("n%d", i)}
		if err := s.Register(notes[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		r, err := s.NewRef(notes[i+1])
		if err != nil {
			t.Fatal(err)
		}
		notes[i].Next = r
		if err := s.MarkUpdated(notes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Bind("chain", notes[0]); err != nil {
		t.Fatal(err)
	}
	return notes
}

// walkChain dereferences the chain from ref and returns the texts seen.
func walkChain(t *testing.T, ref *objmodel.Ref) []string {
	t.Helper()
	var texts []string
	head, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}
	for n := head; n != nil; {
		texts = append(texts, n.Text)
		if n.Next == nil {
			break
		}
		n, err = objmodel.Deref[*note](n.Next)
		if err != nil {
			t.Fatal(err)
		}
	}
	return texts
}

// TestDurableSiteRecoversAfterKill is the core crash story: a durable
// master is hard-killed (no flush, no final compaction) and reborn from
// its WAL directory with the same objects, versions, bindings, and
// proxy-in ids — so replicas fetched before the crash still put back
// after it, and fresh clients still find the graph by name.
func TestDurableSiteRecoversAfterKill(t *testing.T) {
	w := newWorld(t)
	dir := t.TempDir()
	server := w.site("server", WithDurability(dir))
	if server.Incarnation() != 1 {
		t.Fatalf("first life incarnation %d, want 1", server.Incarnation())
	}
	notes := buildDurableChain(t, server)
	headEntry, _ := server.Heap().EntryOf(notes[0])
	headOID, headVersion := headEntry.OID, headEntry.Version()

	// A replica fetched during the first life.
	mobile := w.site("mobile")
	ref, err := mobile.LookupSpec("chain", replication.GetSpec{Mode: replication.Transitive})
	if err != nil {
		t.Fatal(err)
	}
	head, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}

	server.Kill()

	reborn := w.site("server", WithDurability(dir))
	if reborn.Incarnation() != 2 {
		t.Fatalf("second life incarnation %d, want 2", reborn.Incarnation())
	}
	if got := reborn.Heap().Len(); got != 3 {
		t.Fatalf("recovered heap has %d entries, want 3", got)
	}
	entry, ok := reborn.Heap().Get(headOID)
	if !ok {
		t.Fatalf("head %v not recovered", headOID)
	}
	if entry.Version() != headVersion {
		t.Fatalf("head version %d, want %d", entry.Version(), headVersion)
	}

	// The pre-crash replica's provider reference must still resolve: the
	// proxy-in came back at its recorded id.
	head.Text = "edited while server was dead-and-reborn"
	if err := mobile.MarkUpdated(head); err != nil {
		t.Fatal(err)
	}
	if synced, err := mobile.SyncDirty(); err != nil || synced != 1 {
		t.Fatalf("sync to reborn master: synced=%d err=%v", synced, err)
	}
	if got := entry.Obj.(*note).Text; got != "edited while server was dead-and-reborn" {
		t.Fatalf("reborn master text %q", got)
	}

	// A fresh client finds the re-registered binding and walks the
	// recovered graph.
	probe := w.site("probe")
	pref, err := probe.Lookup("chain")
	if err != nil {
		t.Fatal(err)
	}
	texts := walkChain(t, pref)
	if len(texts) != 3 || texts[1] != "n1" || texts[2] != "n2" {
		t.Fatalf("walk after rebirth: %q", texts)
	}
}

// TestDurableCloseIdempotent: Close flushes, compacts, and may be called
// any number of times; a clean restart recovers from the snapshot alone.
func TestDurableCloseIdempotent(t *testing.T) {
	w := newWorld(t)
	dir := t.TempDir()
	server := w.site("server", WithDurability(dir))
	buildDurableChain(t, server)

	if err := server.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := server.Close(); err != nil {
		t.Fatalf("third close: %v", err)
	}

	reborn := w.site("server", WithDurability(dir))
	if got := reborn.Heap().Len(); got != 3 {
		t.Fatalf("recovered heap has %d entries, want 3", got)
	}
	if reborn.Incarnation() != 2 {
		t.Fatalf("incarnation %d, want 2", reborn.Incarnation())
	}
}

// TestDurableCompactionCrashWindow: mutations after a compaction live
// only in the log; a crash then recovers snapshot + log, and replaying
// any stale log suffix over the snapshot is idempotent (last-state-wins).
func TestDurableCompactionCrashWindow(t *testing.T) {
	w := newWorld(t)
	dir := t.TempDir()
	server := w.site("server", WithDurability(dir))
	notes := buildDurableChain(t, server)

	if err := server.durable.compactNow(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// Post-compaction mutations: only the log has them.
	notes[2].Text = "post-compaction edit"
	if err := server.MarkUpdated(notes[2]); err != nil {
		t.Fatal(err)
	}
	tailEntry, _ := server.Heap().EntryOf(notes[2])
	tailOID, tailVersion := tailEntry.OID, tailEntry.Version()

	server.Kill()

	reborn := w.site("server", WithDurability(dir))
	entry, ok := reborn.Heap().Get(tailOID)
	if !ok {
		t.Fatalf("tail %v not recovered", tailOID)
	}
	if got := entry.Obj.(*note).Text; got != "post-compaction edit" {
		t.Fatalf("recovered tail text %q", got)
	}
	if entry.Version() != tailVersion {
		t.Fatalf("tail version %d, want %d", entry.Version(), tailVersion)
	}
}

// TestDurableClientRecoversOfflineEdits is the mobile half of the story:
// a durable client edits replicas while disconnected, crashes, and its
// reborn incarnation still holds the dirty replicas — SyncDirty delivers
// the pre-crash edits once the link returns.
func TestDurableClientRecoversOfflineEdits(t *testing.T) {
	w := newWorld(t)
	server := w.site("server")
	master := &note{Text: "v1"}
	if err := server.Bind("doc", master); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mobile := w.site("mobile", WithDurability(dir))
	ref, err := mobile.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	n, err := objmodel.Deref[*note](ref)
	if err != nil {
		t.Fatal(err)
	}

	w.net.Disconnect("mobile", "server")
	n.Text = "offline edit, journaled"
	if err := mobile.MarkUpdated(n); err != nil {
		t.Fatal(err)
	}
	mobile.Kill() // host powers off mid-detachment

	reborn := w.site("mobile", WithDurability(dir))
	dirty := reborn.DirtyReplicas()
	if len(dirty) != 1 {
		t.Fatalf("reborn client has %d dirty replicas, want 1", len(dirty))
	}
	if got := dirty[0].(*note).Text; got != "offline edit, journaled" {
		t.Fatalf("recovered dirty text %q", got)
	}

	w.net.Reconnect("mobile", "server")
	if synced, err := reborn.SyncDirty(); err != nil || synced != 1 {
		t.Fatalf("sync after rebirth: synced=%d err=%v", synced, err)
	}
	if master.Text != "offline edit, journaled" {
		t.Fatalf("master text %q", master.Text)
	}
	if len(reborn.DirtyReplicas()) != 0 {
		t.Fatal("synced replica must be clean")
	}
}

// TestDurableDirtyReplicaFetchedAtSiteClock: a dirty replica recovered from
// the journal has its fetch time from the site's clock, as every replica the
// engine installs does, not from the wall clock: under a virtual clock its
// lease age and eviction order stay in virtual time.
func TestDurableDirtyReplicaFetchedAtSiteClock(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)
	dir := t.TempDir()

	var server, reborn *Site
	clock.Run(func() {
		var err error
		if server, err = New("server", net); err != nil {
			t.Error(err)
			return
		}
		mobile, err := New("mobile", net, WithDurability(dir))
		if err != nil {
			t.Error(err)
			return
		}
		d, err := server.Export(&note{Text: "v1"})
		if err != nil {
			t.Error(err)
			return
		}
		replica, err := objmodel.Deref[*note](mobile.Engine().RefFromDescriptor(d, mobile.spec))
		if err != nil {
			t.Error(err)
			return
		}
		replica.Text = "offline edit"
		if err := mobile.MarkUpdated(replica); err != nil {
			t.Error(err)
			return
		}
		mobile.Kill()
		clock.Sleep(time.Hour)
		if reborn, err = New("mobile", net, WithDurability(dir)); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	defer clock.Run(func() { _ = reborn.Close(); _ = server.Close() })

	dirty := reborn.DirtyReplicas()
	if len(dirty) != 1 {
		t.Fatalf("reborn client has %d dirty replicas, want 1", len(dirty))
	}
	entry, _ := reborn.Heap().EntryOf(dirty[0])
	if got, want := entry.FetchedAt(), clock.Now(); !got.Equal(want) {
		t.Fatalf("recovered replica fetched at %v, want the site clock's %v", got, want)
	}
}

// TestErrUnavailableChain pins the error contract through the retry →
// engine → site chain: connectivity failures are errors.Is-able both as
// replication.ErrUnavailable and as the underlying transport cause, the
// sentinel is reachable by manual Unwrap walking, and application-level
// rejections surface as *rmi.RemoteError WITHOUT the unavailable tag.
func TestErrUnavailableChain(t *testing.T) {
	w := newWorld(t)
	fast := rmi.RetryPolicy{MaxAttempts: 3, BaseBackoff: 0, MaxBackoff: 0, Multiplier: 1}
	server := w.site("server", WithPolicy(consistency.FirstWriterWins{}))
	alice := w.site("alice", WithRetry(fast))
	bob := w.site("bob", WithRetry(fast))

	masterNote := &note{Text: "v1"}
	if err := server.Bind("doc", masterNote); err != nil {
		t.Fatal(err)
	}
	refA, err := alice.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := objmodel.Deref[*note](refA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := bob.Lookup("doc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := objmodel.Deref[*note](refB)
	if err != nil {
		t.Fatal(err)
	}

	// Connectivity failure: retries exhaust, then the site surfaces the
	// engine's wrap of the transport error.
	w.net.Disconnect("alice", "server")
	a.Text = "stranded"
	if err := alice.MarkUpdated(a); err != nil {
		t.Fatal(err)
	}
	_, err = alice.SyncDirty()
	if err == nil {
		t.Fatal("sync over a dead link must fail")
	}
	if !errors.Is(err, replication.ErrUnavailable) {
		t.Fatalf("errors.Is(ErrUnavailable) false: %v", err)
	}
	if !errors.Is(err, netsim.ErrDisconnected) {
		t.Fatalf("transport cause lost from chain: %v", err)
	}
	// The wrap uses multi-%w, so the chain is a tree: nodes expose either
	// Unwrap() error or Unwrap() []error. Both sentinels must be leaves.
	var walk func(e error) bool
	walk = func(e error) bool {
		if e == replication.ErrUnavailable {
			return true
		}
		switch u := e.(type) {
		case interface{ Unwrap() error }:
			return walk(u.Unwrap())
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				if c != nil && walk(c) {
					return true
				}
			}
		}
		return false
	}
	if !walk(err) {
		t.Fatalf("Unwrap walk never reached the sentinel: %v", err)
	}

	// Application-level rejection: a conflicting put is a remote error,
	// not an unavailability.
	b.Text = "bob's edit"
	if err := bob.Put(b); err != nil {
		t.Fatal(err)
	}
	w.net.Reconnect("alice", "server")
	err = alice.Put(a) // base version is stale now
	var re *rmi.RemoteError
	if !errors.As(err, &re) || !re.IsApp() {
		t.Fatalf("stale put: want app-level *rmi.RemoteError, got %v", err)
	}
	if errors.Is(err, replication.ErrUnavailable) {
		t.Fatalf("an application rejection must not read as unavailability: %v", err)
	}
}

// TestDurableRestartKeepsIdentityAndFrontier covers what the retired
// checkpoint path promised beyond TestDurableSiteRecoversAfterKill: a
// reborn master mints OIDs clear of the recovered range, its references
// to objects mastered elsewhere still proxy upstream, replicas it held
// do not come back as masters, and a WAL directory refuses a site with
// a different id.
func TestDurableRestartKeepsIdentityAndFrontier(t *testing.T) {
	w := newWorld(t)
	upstream := w.site("upstream")
	far := &note{Text: "upstream"}
	if err := upstream.Bind("far", far); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	server := w.site("server", WithDurability(dir), WithSiteID(21))
	local := &note{Text: "local"}
	if err := server.Register(local); err != nil {
		t.Fatal(err)
	}
	var err error
	if local.Next, err = server.Lookup("far"); err != nil {
		t.Fatal(err)
	}
	if err := server.MarkUpdated(local); err != nil {
		t.Fatal(err)
	}
	// A replica of a second upstream object, held clean at the crash.
	other := &note{Text: "replicated"}
	if err := upstream.Bind("other", other); err != nil {
		t.Fatal(err)
	}
	oref, err := server.Lookup("other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := objmodel.Deref[*note](oref); err != nil {
		t.Fatal(err)
	}
	le, _ := server.Heap().EntryOf(local)
	localOID := le.OID
	server.Kill()

	if _, err := New("server", w.net, WithDurability(dir), WithSiteID(22)); !errors.Is(err, wal.ErrSiteIDMismatch) {
		t.Fatalf("foreign site id over the WAL dir: %v", err)
	}

	reborn := w.site("server", WithDurability(dir), WithSiteID(21))
	recovered := make(map[objmodel.OID]bool)
	for _, e := range reborn.Heap().Entries() {
		recovered[e.OID] = true
		if e.Role == heap.Master && e.OID != localOID {
			t.Fatalf("entry %v came back as a master", e.OID)
		}
	}
	entry, ok := reborn.Heap().Get(localOID)
	if !ok {
		t.Fatalf("master %v not recovered", localOID)
	}
	res, err := entry.Obj.(*note).Next.Invoke("Read")
	if err != nil || res[0] != "upstream" {
		t.Fatalf("cross-site frontier after rebirth: %v %v", res, err)
	}
	fresh := &note{Text: "post-recovery"}
	if err := reborn.Register(fresh); err != nil {
		t.Fatal(err)
	}
	if fe, _ := reborn.Heap().EntryOf(fresh); recovered[fe.OID] {
		t.Fatalf("fresh OID %v collides with the recovered range", fe.OID)
	}
}

// pinnedWALRecords is one record of each of the eight WAL kinds, byte for
// byte as record format 2 (wal.Open's OBIWAL2) writes them: these bytes are
// what says the format did not move. Format 1 differed only in the names
// it carried (format1Master). Together they describe one site "server": a
// master note (version 3, a guard triple, a reference out to 0x42/9)
// exported at proxy-in id 40 and bound as "pinned", a dirty replica of
// 0x42/7, a parked transaction over it, and an update-log version vector
// {1: 7}.
var pinnedWALRecords = []struct {
	kind uint64
	hex  string
	rec  func() any // the type this commit decodes and encodes the kind as
}{
	{recMaster, "0181808080808080bf7d0e736974655f746573742e6e6f746503170d70696e6e6564206d6173746572018980808080808021018980808080808021066f726967696e0902effdb6f50d03",
		func() any { return new(replication.JournalMaster) }},
	{recDirty, "0287808080808080210e736974655f746573742e6e6f7465050e0c6f66666c696e65206564697400066f726967696e090000",
		func() any { return new(replication.JournalReplica) }},
	{recClean, "036306", func() any { return new(walCleanRec) }},
	{recBind, "040670696e6e6564067365727665722881808080808080bf7d0e736974655f746573742e6e6f746500",
		func() any { return new(walBindRec) }},
	{recProxy, "0581808080808080bf7d28", func() any { return new(walProxyRec) }},
	{recPending, "0604018780808080808021", func() any { return new(walPendingRec) }},
	{recPendingDone, "0703", func() any { return new(walPendingDoneRec) }},
	{recEventual, "080503010107", func() any { return new(eventual.JournalRecord) }},
}

// TestWALRecordBytesPinned: every pinned record decodes under this commit
// and re-encodes to the same bytes.
func TestWALRecordBytesPinned(t *testing.T) {
	d := &durability{reg: codec.DefaultRegistry()}
	for _, p := range pinnedWALRecords {
		raw, err := hex.DecodeString(p.hex)
		if err != nil {
			t.Fatal(err)
		}
		dec := codec.NewDecoder(raw)
		kind, err := dec.ReadUvarint()
		if err != nil || kind != p.kind {
			t.Fatalf("kind %d: leading uvarint %d, err %v", p.kind, kind, err)
		}
		rec := p.rec()
		if err := dec.DecodeStruct(d.reg, rec); err != nil || dec.Remaining() != 0 {
			t.Fatalf("kind %d: decode: %v, %d bytes left", p.kind, err, dec.Remaining())
		}
		again, err := d.encodeRec(p.kind, rec)
		if err != nil || !bytes.Equal(again, raw) {
			t.Errorf("kind %d re-encodes as\n %x, pinned\n %x (err %v)", p.kind, again, raw, err)
		}
		if m, ok := rec.(*replication.JournalMaster); ok {
			if m.Version != 3 || m.AppliedBase != 2 || m.AppliedCRC != 0xDEADBEEF || m.AppliedVersion != 3 ||
				len(m.Frontier) != 1 || m.Frontier[0].Provider.Addr != "origin" {
				t.Errorf("pinned master decoded as %+v", m)
			}
		}
	}
}

// TestPinnedWALDirectoryRecovers: a WAL directory holding the pinned
// records — what the previous commit left on disk — recovers into the site
// they describe.
func TestPinnedWALDirectoryRecovers(t *testing.T) {
	dir := t.TempDir()
	store, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pinnedWALRecords {
		raw, _ := hex.DecodeString(p.hex)
		if err := store.Append(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	w := newWorld(t)
	server := w.site("server", WithDurability(dir), WithEventual())
	masterOID := objmodel.OID(uint64(hashSiteID("server"))<<48 | 1)
	dirtyOID := objmodel.OID(0x42<<48 | 7)

	master, ok := server.Heap().Get(masterOID)
	if !ok || master.Role != heap.Master || master.Version() != 3 || master.Obj.(*note).Text != "pinned master" {
		t.Fatalf("recovered master: %+v (found %v)", master, ok)
	}
	if next := master.Obj.(*note).Next; next == nil || next.OID() != objmodel.OID(0x42<<48|9) || next.IsResolved() {
		t.Fatalf("recovered master's reference: %v", next)
	}
	if img, err := server.Engine().MasterImage(master); err != nil || img.AppliedBase != 2 || img.AppliedCRC != 0xDEADBEEF || img.AppliedVersion != 3 {
		t.Fatalf("recovered exactly-once guard: %+v (err %v)", img, err)
	}
	if id := server.Engine().ProxyInIDs()[masterOID]; id != 40 {
		t.Fatalf("proxy-in re-exported at id %d, want 40", id)
	}
	dirty, ok := server.Heap().Get(dirtyOID)
	if !ok || !dirty.Dirty() || dirty.Version() != 5 || dirty.Obj.(*note).Text != "offline edit" || dirty.Provider().Addr != "origin" {
		t.Fatalf("recovered dirty replica: %+v (found %v)", dirty, ok)
	}
	if parked := server.durable.parkedSnapshot(); len(parked) != 1 || parked[0].id != 4 || len(parked[0].oids) != 1 || parked[0].oids[0] != uint64(dirtyOID) {
		t.Fatalf("recovered parked transactions: %+v", parked)
	}
	if vv := server.Eventual().VersionVector(); len(vv) != 1 || vv[0] != (eventual.VVPair{Site: 1, Clock: 7}) {
		t.Fatalf("recovered version vector: %+v", vv)
	}
	// The binding came back too: a fresh site finds the master by name and
	// demands it through the proxy-in at its recorded id.
	ref, err := w.site("probe").Lookup("pinned")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := objmodel.Deref[*note](ref); err != nil || got.Text != "pinned master" {
		t.Fatalf("lookup through the recovered binding: %v, %v", got, err)
	}
}

// format1Master is pinnedWALRecords' master record as record format 1 wrote
// it: its frontier reference also carried the interface name
// "obiwan.IProvideRemote" and the target's type name.
const format1Master = "0181808080808080bf7d0e736974655f746573742e6e6f746503170d70696e6e6564206d6173746572018980808080808021018980808080808021066f726967696e09156f626977616e2e4950726f7669646552656d6f74650e736974655f746573742e6e6f746502effdb6f50d03"

// TestOldFormatWALDirectoryRefused: a durable site directory in record
// format 1 (a manifest, a snapshot and a log) is refused with
// wal.ErrOldFormat before anything decodes it, and every file in it is left
// byte-identical: no incarnation bump, no torn-tail truncation, no new file.
func TestOldFormatWALDirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	rec, _ := hex.DecodeString(format1Master)
	files := map[string][]byte{
		"manifest": append([]byte("OBIMAN1\n"), 1, 0),
		"snapshot": wal.AppendFrame([]byte("OBISNP1\n"), rec),
		// A torn tail, which a format-2 open would truncate away.
		"wal.log": append(wal.AppendFrame([]byte("OBIWAL1\n"), rec), 0xff, 0xff),
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w := newWorld(t)
	if s, err := New("server", w.net, WithNameServer("ns"), WithDurability(dir)); !errors.Is(err, wal.ErrOldFormat) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("site over a format-1 directory: %v, want wal.ErrOldFormat", err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != len(files) {
		t.Errorf("directory holds %d entries after the refusal, want %d", len(left), len(files))
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed: %x, want %x (err %v)", name, got, want, err)
		}
	}
}
