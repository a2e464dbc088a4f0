package rmi

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"obiwan/internal/invoke"
	"obiwan/internal/netsim"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
	"obiwan/internal/wire"
)

// idOf is the Identity a test names "addr#N" (ephemeral incarnation N),
// "addr#dN" (durable incarnation N) or "addr" (incarnation 0).
func idOf(name string) wire.Identity {
	addr, inc, _ := strings.Cut(name, "#")
	durable := strings.HasPrefix(inc, "d")
	n, _ := strconv.ParseUint(strings.TrimPrefix(inc, "d"), 10, 64)
	return wire.Identity{Addr: addr, Incarnation: n, Durable: durable}
}

// size returns the number of tracked calls for a client (tests).
func (t *dedupeTable) size(client wire.Identity) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cl, ok := t.clients[client]; ok {
		return len(cl.entries)
	}
	return 0
}

// finish runs one call through the table as dispatchOnce does and returns
// its entry.
func finish(t *testing.T, tbl *dedupeTable, client string, id uint64, frame []byte) *dedupeEntry {
	t.Helper()
	e, dup := tbl.begin(idOf(client), id)
	if dup {
		t.Fatalf("%s id %d: unexpected duplicate", client, id)
	}
	tbl.complete(e, id, wire.FrameOf(frame))
	return e
}

// text is a one-buffer frame's bytes, as a string.
func text(f wire.Frame) string {
	one, _ := f.Buffers()
	return string(one)
}

// audit recomputes what a client's log retains from its entries and reports
// where the books disagree with it or break a bound: the retained bytes are
// the sum of what the retained frames pin, exactly the entries behind
// order[held:] hold one, and the sum is inside the budget unless the newest
// frame alone is what exceeds it. It may run on any goroutine.
func audit(t *testing.T, tbl *dedupeTable, client string) (bytes, frames int) {
	t.Helper()
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	cl := tbl.clients[idOf(client)]
	for _, e := range cl.entries {
		if e.evicted && (!e.done || e.frame.Pinned() != 0) {
			t.Errorf("tombstone in a wrong state: %+v", e)
		}
		if e.done && !e.evicted {
			bytes += e.frame.Pinned()
			frames++
		}
	}
	held := 0
	for i, id := range cl.order {
		if e := cl.entries[id]; i < cl.held && !e.evicted {
			t.Errorf("id %d is before the held mark but keeps its frame", id)
		} else if i >= cl.held {
			held += e.frame.Pinned()
		}
	}
	if cl.bytes != bytes || held != bytes || frames != len(cl.order)-cl.held {
		t.Errorf("books say %d bytes in %d frames; entries hold %d bytes in %d frames (%d behind the held mark)",
			cl.bytes, len(cl.order)-cl.held, bytes, frames, held)
	}
	if n := len(cl.order); n > 0 {
		newest := cl.entries[cl.order[n-1]].frame.Pinned()
		if bytes > maxDedupeBytesPerClient && bytes != newest {
			t.Errorf("%d bytes retained: over the %d budget by more than the newest frame (%d)",
				bytes, maxDedupeBytesPerClient, newest)
		}
	}
	if len(cl.order) > maxDedupePerClient {
		t.Errorf("%d completed entries, cap %d", len(cl.order), maxDedupePerClient)
	}
	return bytes, frames
}

func TestDedupeInFlightWait(t *testing.T) {
	tbl := newDedupeTable(netsim.Real())
	e1, dup := tbl.begin(idOf("c#1"), 7)
	if dup {
		t.Fatal("first begin must not be a duplicate")
	}
	e2, dup := tbl.begin(idOf("c#1"), 7)
	if !dup || e2 != e1 {
		t.Fatal("second begin must return the in-flight entry")
	}
	tbl.mu.Lock()
	done := e2.done
	tbl.mu.Unlock()
	if done {
		t.Fatal("entry must not be done before completion")
	}
	got := make(chan string)
	go func() {
		frame, ok := tbl.await(e2)
		if !ok {
			t.Error("a frame inside the budget must be replayed")
		}
		got <- text(frame)
	}()
	tbl.complete(e1, 7, wire.FrameOf([]byte("reply")))
	if frame := <-got; frame != "reply" {
		t.Fatalf("duplicate sees frame %q", frame)
	}
	// A different client shares nothing.
	if _, dup := tbl.begin(idOf("d#1"), 7); dup {
		t.Fatal("ids must be scoped per client")
	}
}

func TestDedupeEviction(t *testing.T) {
	tbl := newDedupeTable(netsim.Real())
	for id := uint64(1); id <= maxDedupePerClient+10; id++ {
		finish(t, tbl, "c#1", id, nil) // completed: eligible for eviction
	}
	if got := tbl.size(idOf("c#1")); got != maxDedupePerClient {
		t.Fatalf("table size %d, want cap %d", got, maxDedupePerClient)
	}
	audit(t, tbl, "c#1")
	// Ids past the count cap read as fresh calls (they would re-execute,
	// which is why the cap is far beyond any live retry window).
	if _, dup := tbl.begin(idOf("c#1"), 1); dup {
		t.Fatal("an id past the count cap must not be seen as duplicate")
	}

	// The byte bound: six 1 MiB replies against a 4 MiB budget. The two
	// oldest give up their frame and stay as tombstones; a retry of either
	// is still a duplicate, with nothing to replay.
	const mib = 1 << 20
	entries := make([]*dedupeEntry, 7)
	for id := uint64(1); id <= 6; id++ {
		entries[id] = finish(t, tbl, "b#1", id, make([]byte, mib))
	}
	if bytes, frames := audit(t, tbl, "b#1"); bytes != 4*mib || frames != 4 {
		t.Fatalf("retained %d bytes in %d frames, want 4 MiB in 4", bytes, frames)
	}
	if got := tbl.size(idOf("b#1")); got != 6 {
		t.Fatalf("%d entries, want 6: a tombstone stays in the table", got)
	}
	for id := uint64(1); id <= 6; id++ {
		e, dup := tbl.begin(idOf("b#1"), id)
		if !dup || e != entries[id] {
			t.Fatalf("id %d must still be a duplicate of its first arrival", id)
		}
		frame, ok := tbl.await(e)
		if want := id > 2; ok != want || (frame.Len() == mib) != want {
			t.Fatalf("id %d: frame of %d bytes, ok %v; want retained %v", id, frame.Len(), ok, want)
		}
	}
	// One reply larger than the whole budget displaces every older frame
	// and is itself kept: the newest completed frame always is.
	finish(t, tbl, "b#1", 7, make([]byte, 5*mib))
	if bytes, frames := audit(t, tbl, "b#1"); bytes != 5*mib || frames != 1 {
		t.Fatalf("retained %d bytes in %d frames, want the 5 MiB frame alone", bytes, frames)
	}
	// The next one displaces it in turn.
	finish(t, tbl, "b#1", 8, make([]byte, 16))
	if bytes, frames := audit(t, tbl, "b#1"); bytes != 16 || frames != 1 {
		t.Fatalf("retained %d bytes in %d frames, want the 16-byte frame alone", bytes, frames)
	}
	// Tombstones count against the count cap like any completed entry.
	for id := uint64(9); id <= maxDedupePerClient+8; id++ {
		finish(t, tbl, "b#1", id, nil)
	}
	audit(t, tbl, "b#1")
	if _, dup := tbl.begin(idOf("b#1"), 8); dup {
		t.Fatal("id 8 is past the count cap and must be gone")
	}
}

func TestDedupeNeverEvictsInFlight(t *testing.T) {
	tbl := newDedupeTable(netsim.Real())
	first, _ := tbl.begin(idOf("c#1"), 1) // stays in flight
	for id := uint64(2); id <= maxDedupePerClient+10; id++ {
		finish(t, tbl, "c#1", id, nil)
	}
	// Nor does any number of bytes completing behind it touch it.
	for id := uint64(1 << 20); id < 1<<20+12; id++ {
		finish(t, tbl, "c#1", id, make([]byte, 1<<20))
	}
	audit(t, tbl, "c#1")
	e, dup := tbl.begin(idOf("c#1"), 1)
	if !dup || e != first {
		t.Fatal("in-flight entry must survive eviction pressure")
	}
	tbl.mu.Lock()
	done, evicted := first.done, first.evicted
	tbl.mu.Unlock()
	if done || evicted {
		t.Fatalf("in-flight entry was touched: done %v evicted %v", done, evicted)
	}
	tbl.complete(first, 1, wire.FrameOf([]byte("late")))
	if frame, ok := tbl.await(first); !ok || text(frame) != "late" {
		t.Fatalf("the call that completed last must keep its frame, got %q ok %v", text(frame), ok)
	}
	audit(t, tbl, "c#1")
}

// TestDedupeBooksUnderConcurrency: eight callers of one client begin calls
// and complete them out of order with frames from 0 to 1.5 MiB. After every
// completion the books must equal what the entries hold and stay inside the
// budget plus the newest frame.
func TestDedupeBooksUnderConcurrency(t *testing.T) {
	tbl := newDedupeTable(netsim.Real())
	const callers, each = 8, 60
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			type call struct {
				e  *dedupeEntry
				id uint64
			}
			var inflight []call
			closeOne := func() {
				k := rng.Intn(len(inflight))
				c := inflight[k]
				inflight = append(inflight[:k], inflight[k+1:]...)
				tbl.complete(c.e, c.id, wire.FrameOf(make([]byte, rng.Intn(3<<19))))
				audit(t, tbl, "c#1")
			}
			for i := 0; i < each; i++ {
				id := uint64(c*each + i + 1)
				e, dup := tbl.begin(idOf("c#1"), id)
				if dup {
					t.Errorf("id %d: unexpected duplicate", id)
					return
				}
				if inflight = append(inflight, call{e, id}); len(inflight) == 4 {
					closeOne()
				}
			}
			for len(inflight) > 0 {
				closeOne()
			}
		}(c)
	}
	wg.Wait()
	if got := tbl.size(idOf("c#1")); got != callers*each {
		t.Fatalf("%d entries, want %d", got, callers*each)
	}
	bytes, frames := audit(t, tbl, "c#1")
	if frames == 0 || frames == callers*each {
		t.Fatalf("%d frames (%d bytes) retained of %d: the budget never bit", frames, bytes, callers*each)
	}
}

// TestSupersededIncarnationPruned: a client's log goes when a higher
// incarnation of the same address, in the same namespace, calls — and only
// then.
func TestSupersededIncarnationPruned(t *testing.T) {
	tbl := newDedupeTable(netsim.Real())
	resident := func(want ...string) {
		t.Helper()
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		if len(tbl.clients) != len(want) {
			t.Fatalf("%d logs resident, want %v", len(tbl.clients), want)
		}
		indexed := 0
		for _, logs := range tbl.lines {
			indexed += len(logs)
			for _, cl := range logs[len(logs):cap(logs)] {
				if cl != nil {
					t.Fatalf("the index still points at the dropped log of %+v", cl.client)
				}
			}
		}
		for _, c := range want {
			if _, ok := tbl.clients[idOf(c)]; !ok {
				t.Fatalf("log of %s is gone, want %v resident", c, want)
			}
		}
		if indexed > len(want) {
			t.Fatalf("index holds %d logs, %d are resident", indexed, len(want))
		}
	}
	finish(t, tbl, "a:1#3", 1, []byte("x"))
	finish(t, tbl, "a:1#d1", 1, []byte("x")) // durable ids: a namespace of their own
	finish(t, tbl, "b:1#9", 1, []byte("x"))  // another address
	finish(t, tbl, "raw", 1, []byte("x"))    // incarnation 0: supersedes nothing
	resident("a:1#3", "a:1#d1", "b:1#9", "raw")

	finish(t, tbl, "a:1#5", 1, []byte("x"))
	resident("a:1#5", "a:1#d1", "b:1#9", "raw")

	// A late frame of the old incarnation is served from a log of its own.
	// It must not displace the newer incarnation's log, whose calls stay
	// duplicates.
	finish(t, tbl, "a:1#3", 2, []byte("x"))
	resident("a:1#3", "a:1#5", "a:1#d1", "b:1#9", "raw")
	if _, dup := tbl.begin(idOf("a:1#5"), 1); !dup {
		t.Fatal("a late frame of incarnation 3 evicted the log of incarnation 5")
	}

	// The next incarnation drops both; the durable namespace moves alone.
	finish(t, tbl, "a:1#6", 1, []byte("x"))
	resident("a:1#6", "a:1#d1", "b:1#9", "raw")
	finish(t, tbl, "a:1#d2", 1, []byte("x"))
	resident("a:1#6", "a:1#d2", "b:1#9", "raw")

	// A call in flight when its log is dropped still completes, on the
	// unlinked log, and releases its duplicates.
	e, _ := tbl.begin(idOf("a:1#6"), 2)
	finish(t, tbl, "a:1#7", 1, []byte("x"))
	resident("a:1#7", "a:1#d2", "b:1#9", "raw")
	tbl.complete(e, 2, wire.FrameOf([]byte("orphan")))
	if frame, ok := tbl.await(e); !ok || text(frame) != "orphan" {
		t.Fatalf("orphaned call: frame %q ok %v", text(frame), ok)
	}
	resident("a:1#7", "a:1#d2", "b:1#9", "raw")
}

// TestRestartedClientSupersedesItsLog is the same over runtimes: a client
// that closes and comes back at its address is a new incarnation, and the
// server keeps one log for the address.
func TestRestartedClientSupersedesItsLog(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ref, _ := server.Export(&calculator{})
	var ids []wire.Identity
	for life := 0; life < 3; life++ {
		client, err := newRuntime(net, "client")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Call(ref, "Add", int64(1), int64(2)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, client.id)
		_ = client.Close()
	}
	server.dedupe.mu.Lock()
	defer server.dedupe.mu.Unlock()
	if _, ok := server.dedupe.clients[ids[2]]; !ok || len(server.dedupe.clients) != 1 {
		t.Fatalf("server keeps %d logs after lives %v, want the last one's only", len(server.dedupe.clients), ids)
	}
}

// TestNewProcessIsANewIncarnation: a runtime that binds the address a
// runtime of an earlier process held is a later incarnation of it, though
// the process-local state starts afresh (here: reset, as in a new process).
// A peer therefore runs the new life's call 1 instead of answering it with
// the reply it recorded for the old life's call 1.
func TestNewProcessIsANewIncarnation(t *testing.T) {
	net := transport.NewMemNetwork(netsim.Loopback)
	server, err := newRuntime(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ref, _ := server.Export(&calculator{})
	for _, word := range []string{"first", "second"} {
		lastEphemeral.Store(0) // what a new process starts from
		client, err := newRuntime(net, "cli")
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.Call(ref, "Echo", word, []byte(nil))
		_ = client.Close()
		if err != nil || res[0] != word {
			t.Fatalf("the life that sent %q got %v (%v)", word, res, err)
		}
	}
	if st := server.Stats(); st.CallsServed != 2 || st.DupsSuppressed != 0 {
		t.Fatalf("server %+v, want both calls served", st)
	}
}

// blobber serves replies of a chosen size and counts executions per tag.
type blobber struct {
	mu   sync.Mutex
	runs map[string]int
}

func (b *blobber) Blob(tag string, n int64) []byte {
	b.mu.Lock()
	b.runs[tag]++
	b.mu.Unlock()
	return make([]byte, n)
}

func (b *blobber) ran(tag string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs[tag]
}

// TestEvictedReplyIsRefusedNotReexecuted: a call's reply is lost; before
// the client re-sends it, two more large replies to the same client push
// the first out of the byte budget. The retry finds a tombstone: the method
// must not run a second time, and the client must get the typed fault at
// once, with no further attempt. Virtual time makes the order certain.
func TestEvictedReplyIsRefusedNotReexecuted(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)
	clock.Run(func() {
		server, err := newRuntime(net, "server")
		if err != nil {
			t.Error(err)
			return
		}
		defer server.Close()
		client, err := newRuntime(net, "client", WithRetryPolicy(fastRetry(4, time.Second)))
		if err != nil {
			t.Error(err)
			return
		}
		defer client.Close()
		b := &blobber{runs: map[string]int{}}
		ref, _ := server.Export(b)
		const reply = 3 << 20 // two fit the 4 MiB budget only if the older goes
		if _, err := client.Call(ref, "Blob", "warm", int64(1)); err != nil {
			t.Error(err)
			return
		}
		net.SetFaultSchedule("server", "client", netsim.NewFaultSchedule(
			netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
		))
		var lostErr error
		lost := netsim.NewWaitGroup(clock)
		lost.Add(1)
		clock.Go(func() {
			defer lost.Done()
			_, lostErr = client.Call(ref, "Blob", "lost", int64(reply))
		})
		clock.Sleep(100 * time.Millisecond) // the lost call has run; its retry is due at 1 s
		if b.ran("lost") != 1 {
			t.Errorf("the call ran %d times before its reply was lost", b.ran("lost"))
		}
		for _, tag := range []string{"later-1", "later-2"} {
			if res, err := client.Call(ref, "Blob", tag, int64(reply)); err != nil || len(res[0].([]byte)) != reply {
				t.Errorf("%s: %v", tag, err)
			}
		}
		lost.Wait()

		var re *RemoteError
		if !errors.As(lostErr, &re) || re.Code != wire.FaultReplyEvicted {
			t.Errorf("retry of the evicted reply returned %v, want a %s RemoteError", lostErr, wire.FaultReplyEvicted)
		}
		if errors.Is(lostErr, ErrTimeout) || transport.IsTransient(lostErr) {
			t.Errorf("%v must not look transient: retrying cannot help", lostErr)
		}
		if n := b.ran("lost"); n != 1 {
			t.Errorf("the method ran %d times, want 1: a tombstone is never re-executed", n)
		}
		cs, ss := client.Stats(), server.Stats()
		if cs.Retries != 1 || cs.CallsSent != 5 || cs.RemoteFaults != 1 {
			t.Errorf("client made a further attempt: %+v", cs)
		}
		if ss.CallsServed != 4 || ss.DupsSuppressed != 1 {
			t.Errorf("server stats %+v, want 4 served and 1 duplicate suppressed", ss)
		}
	})
}

// tally is a Dispatcher with a read-only method, Read, which it declares
// Idempotent, and one that is not, Bump; it counts the runs of each.
type tally struct {
	mu           sync.Mutex
	reads, bumps int64
}

func (c *tally) Dispatch(_ telemetry.SpanContext, _ transport.Addr, method string, args []any) ([]any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch method {
	case "Read":
		c.reads++
		return []any{c.bumps}, nil
	case "Bump":
		c.bumps++
		return []any{c.bumps}, nil
	}
	return nil, invoke.NoSuchMethod(c, method)
}

func (c *tally) Idempotent(method string) bool { return method == "Read" }

func (c *tally) runs() (reads, bumps int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads, c.bumps
}

// TestIdempotentCallIsNeverRecorded: one reply of each of a tally's methods
// is lost, to two clients. The retried Read runs again, nothing is answered
// from the dedupe table for it, and its client, which called only Read,
// leaves no log there. The retried Bump is replayed: it runs once. Virtual
// time makes the order certain.
func TestIdempotentCallIsNeverRecorded(t *testing.T) {
	clock := netsim.NewVirtualClock()
	defer clock.Stop()
	net := transport.NewMemNetworkClock(netsim.Loopback, 1, clock)
	clock.Run(func() {
		server, err := newRuntime(net, "server")
		if err != nil {
			t.Error(err)
			return
		}
		defer server.Close()
		c := &tally{}
		ref, _ := server.Export(c)
		// lostOnce calls method from a new client whose first reply is lost
		// and returns its first result.
		lostOnce := func(name string, method string) any {
			client, err := newRuntime(net, transport.Addr(name), WithRetryPolicy(fastRetry(4, time.Second)))
			if err != nil {
				t.Error(err)
				return nil
			}
			defer client.Close()
			net.SetFaultSchedule("server", transport.Addr(name), netsim.NewFaultSchedule(
				netsim.FaultEvent{AtSend: 1, Action: netsim.ActDrop},
			))
			res, err := client.Call(ref, method)
			if err != nil {
				t.Errorf("%s: %v", method, err)
				return nil
			}
			if r := client.Stats().Retries; r != 1 {
				t.Errorf("%s was retried %d times, want 1", method, r)
			}
			return res[0]
		}

		lostOnce("reader", "Read")
		if reads, _ := c.runs(); reads != 2 {
			t.Errorf("the retried Read ran %d times, want 2", reads)
		}
		if dups := server.Stats().DupsSuppressed; dups != 0 {
			t.Errorf("%d calls answered from the dedupe table, want 0", dups)
		}
		server.dedupe.mu.Lock()
		for id := range server.dedupe.clients {
			if id.Addr == "reader" {
				t.Errorf("a client that only read left a dedupe log (%v)", id)
			}
		}
		server.dedupe.mu.Unlock()

		if res := lostOnce("writer", "Bump"); res != int64(1) {
			t.Errorf("the retried Bump answered %v, want 1", res)
		}
		if _, bumps := c.runs(); bumps != 1 {
			t.Errorf("the retried Bump ran %d times, want 1", bumps)
		}
		if dups := server.Stats().DupsSuppressed; dups != 1 {
			t.Errorf("%d calls answered from the dedupe table, want 1", dups)
		}
	})
}

// TestDedupeEntryStaysInItsSizeClass: one entry is allocated and retained
// per call. It fills the 128-byte class; see dedupeEntry for why neither
// neighbour will do.
func TestDedupeEntryStaysInItsSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(dedupeEntry{}); s <= 112 || s > 128 {
		t.Fatalf("dedupeEntry is %d bytes, want the 128-byte size class", s)
	}
}
