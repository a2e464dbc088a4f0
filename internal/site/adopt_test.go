package site

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"obiwan/internal/codec"
	"obiwan/internal/dissemination"
	"obiwan/internal/netsim"
	"obiwan/internal/objmodel"
	"obiwan/internal/replication"
	"obiwan/internal/telemetry"
	"obiwan/internal/transport"
)

// sitePair starts a master and a mobile site on a fresh network of the
// named kind: "mem" (the zero-delay simulated network) or "tcp" (loopback).
func sitePair(t *testing.T, kind string, opts ...Option) (master, mobile *Site) {
	t.Helper()
	var net transport.Network
	names := [2]string{"master", "mobile"}
	switch kind {
	case "mem":
		net = transport.NewMemNetwork(netsim.Profile{Name: "zero"})
	case "tcp":
		net = transport.NewTCPNetwork()
		names = [2]string{"127.0.0.1:0", "127.0.0.1:0"}
	}
	sites := [2]*Site{}
	for i, name := range names {
		s, err := New(name, net, append([]Option{WithSiteID(uint16(41 + i))}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		sites[i] = s
	}
	return sites[0], sites[1]
}

// chainOf demands head with spec at mobile and returns the replicas of the
// chain it starts, n of them, following each Next.
func chainOf(t *testing.T, mobile *Site, head replication.Descriptor, spec replication.GetSpec, n int) []*blob {
	t.Helper()
	root, err := mobile.Engine().RefFromDescriptor(head, spec).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	out := []*blob{root.(*blob)}
	for len(out) < n {
		next, err := objmodel.Deref[*blob](out[len(out)-1].Next)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, next)
	}
	return out
}

// inside reports whether b lies within buf's backing array.
func inside(b, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(cap(buf))
}

// TestAdoptedReplicaIsItsOwn: a fresh cluster member keeps its state where
// the reply frame put it, and the frame is the member's alone to write.
// Scribbling over one member of a 4 x 4 KiB cluster and appending to it
// leaves its siblings as the master sent them; after Evict a new demand
// brings the master's bytes back; each adopted slice has its capacity
// clipped to its length. A cluster put adopts at the master the same way:
// appending to one member, or a later single put of it, leaves its
// neighbours as they were. A single put adopts at the master: an edit of the
// master afterwards does not move the exactly-once guard, so a retry of the
// same request is answered from it and not applied again. Over the mem
// network and TCP loopback; run under -race.
func TestAdoptedReplicaIsItsOwn(t *testing.T) {
	const members, size = 4, 4 << 10
	for _, kind := range []string{"mem", "tcp"} {
		t.Run(kind+"/cluster", func(t *testing.T) {
			master, mobile := sitePair(t, kind)
			chain, head := blobChain(t, master, members, size)
			spec := replication.GetSpec{Mode: replication.Incremental, Batch: members, Clustered: true}
			replicas := chainOf(t, mobile, head, spec, members)
			for i, r := range replicas {
				if !bytes.Equal(r.Data, chain[i].Data) {
					t.Fatalf("member %d arrived with other bytes than its master's", i)
				}
				if cap(r.Data) != len(r.Data) {
					t.Fatalf("member %d: %d bytes with capacity %d: an append would write into the frame", i, len(r.Data), cap(r.Data))
				}
			}
			mine := replicas[1].Data
			for j := range mine {
				mine[j] = 0xEE
			}
			_ = append(mine, "past the end of member 1"...)
			for i, r := range replicas {
				if i != 1 && !bytes.Equal(r.Data, chain[i].Data) {
					t.Fatalf("writing member 1 changed member %d", i)
				}
			}
			if n, err := mobile.Evict(replicas[0], false); err != nil || n != members {
				t.Fatalf("evict: %d %v", n, err)
			}
			for i, r := range chainOf(t, mobile, head, spec, members) {
				if !bytes.Equal(r.Data, chain[i].Data) {
					t.Fatalf("re-demanded member %d is not the master's", i)
				}
			}
		})
		t.Run(kind+"/cluster put", func(t *testing.T) {
			master, mobile := sitePair(t, kind)
			chain, head := blobChain(t, master, members, size)
			spec := replication.GetSpec{Mode: replication.Incremental, Batch: members, Clustered: true}
			replicas := chainOf(t, mobile, head, spec, members)
			for i, r := range replicas {
				r.Data[0] = 0xA0 + byte(i)
			}
			if err := mobile.PutCluster(replicas[0]); err != nil {
				t.Fatal(err)
			}
			// The puts ran on a server goroutine; reading each member under
			// its state lock orders the reads after them.
			masterData := func() [][]byte {
				out := make([][]byte, members)
				for i, m := range chain {
					e, _ := master.Heap().EntryOf(m)
					e.LockState()
					out[i] = m.Data
					e.UnlockState()
				}
				return out
			}
			data := masterData()
			for i, d := range data {
				if !bytes.Equal(d, replicas[i].Data) {
					t.Fatalf("master member %d does not hold its replica's bytes", i)
				}
				if cap(d) != len(d) {
					t.Fatalf("master member %d: %d bytes with capacity %d: an append would write into the frame", i, len(d), cap(d))
				}
			}
			before, after := bytes.Clone(data[0]), bytes.Clone(data[2])
			_ = append(data[1], "past the end of member 1"...)
			neighbours := func(when string) {
				t.Helper()
				data := masterData()
				if !bytes.Equal(data[0], before) || !bytes.Equal(data[2], after) {
					t.Fatalf("%s changed a neighbour of member 1 at the master", when)
				}
			}
			neighbours("appending to member 1")

			// A single put of member 1, to its own proxy-in.
			desc, err := master.Export(chain[1])
			if err != nil {
				t.Fatal(err)
			}
			mentry, _ := master.Heap().EntryOf(chain[1])
			replicas[1].Data[0] = 0x5A
			state, err := mobile.Engine().CaptureSnapshot(replicas[1])
			if err != nil {
				t.Fatal(err)
			}
			req := &replication.PutRequest{OID: desc.OID, BaseVersion: mentry.Version(), State: state}
			if _, _, err := mobile.Runtime().CallWithin(telemetry.SpanContext{}, time.Time{}, desc.Provider, replication.BulkTimeout, "put", req); err != nil {
				t.Fatal(err)
			}
			if masterData()[1][0] != 0x5A {
				t.Fatal("the single put of member 1 did not reach the master")
			}
			neighbours("a single put of member 1")
		})
		t.Run(kind+"/put", func(t *testing.T) {
			master, mobile := sitePair(t, kind)
			chain, head := blobChain(t, master, 1, size)
			replica := chainOf(t, mobile, head, replication.DefaultSpec, 1)[0]
			entry, _ := mobile.Heap().EntryOf(replica)
			replica.Data[0] = 0x5A
			state, err := mobile.Engine().CaptureSnapshot(replica)
			if err != nil {
				t.Fatal(err)
			}
			req := &replication.PutRequest{OID: uint64(entry.OID), BaseVersion: entry.Version(), State: state}
			put := func() uint64 {
				t.Helper()
				res, _, err := mobile.Runtime().CallWithin(telemetry.SpanContext{}, time.Time{}, entry.Provider(), replication.BulkTimeout, "put", req)
				if err != nil {
					t.Fatal(err)
				}
				return res[0].(*replication.PutReply).NewVersion
			}
			applied := put()
			mentry, _ := master.Heap().EntryOf(chain[0])
			// The put ran on a server goroutine; the state lock it restored
			// under orders this edit after it.
			mentry.LockState()
			for j := range chain[0].Data {
				chain[0].Data[j] = 0xC3
			}
			mentry.UnlockState()
			if err := master.MarkUpdated(chain[0]); err != nil {
				t.Fatal(err)
			}
			edited := mentry.Version()
			if got := put(); got != applied {
				t.Fatalf("retried put answered version %d, want the recorded %d", got, applied)
			}
			mentry.LockState()
			data := bytes.Clone(chain[0].Data)
			mentry.UnlockState()
			if v := mentry.Version(); v != edited || data[0] != 0xC3 {
				t.Fatalf("retried put was applied again: version %d (want %d), first byte %#x", v, edited, data[0])
			}
		})
	}
	t.Run("small states copy", func(t *testing.T) {
		reg := codec.DefaultRegistry()
		for _, n := range []int{64, 4 << 10} {
			state, err := objmodel.CaptureState(reg, &blob{Data: bytes.Repeat([]byte{7}, n)})
			if err != nil {
				t.Fatal(err)
			}
			var b blob
			if err := objmodel.AdoptState(reg, &b, state); err != nil {
				t.Fatal(err)
			}
			if adopted, want := inside(b.Data, state), codec.StaysInPlace(len(state)); adopted != want || cap(b.Data) != len(b.Data) {
				t.Fatalf("%d-byte state: adopted %v, want %v; capacity %d for %d bytes", len(state), adopted, want, cap(b.Data), len(b.Data))
			}
		}
	})
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDifferentFatesKeepCopying: a restore adopts only where the frame's
// other contents share the object's fate, and copies everywhere else.
//   - EvictColdest drops the members of a non-clustered batch one at a
//     time, so each keeps a copy of its own: evicting nine of a ten-object
//     16 KiB batch frees at least half of their bytes, where one adopted
//     survivor would keep the whole frame.
//   - Evicting a cluster, which adopted, frees its frame.
//   - A snapshot restored twice across an edit (eventual's replay, a
//     transaction's rollback) comes back whole both times.
//   - An update pulled from a publisher in process and applied to a replica
//     leaves the publisher's log as it was when the replica is written.
func TestDifferentFatesKeepCopying(t *testing.T) {
	const n, size = 10, 16 << 10
	// freedEnough: evicting k replicas frees at least three quarters of
	// their k states' bytes. The two readings hold the master's retained
	// replies alike, and the evicted replicas' small objects (entries, refs:
	// ≈ 4 KB each) add to what is freed, so a copy frees ≈ 1.25 states'
	// worth per replica and a frame that stays pinned ≈ 0.25.
	freedEnough := func(freed int64, k int) bool { return freed >= int64(k*size*3/4) }
	t.Run("evict coldest of a batch", func(t *testing.T) {
		master, mobile := sitePair(t, "mem", WithoutTelemetry())
		_, head := blobChain(t, master, n, size)
		// Only the tail stays reachable from here: it refers to no other.
		tail := func() *blob {
			replicas := chainOf(t, mobile, head, replication.GetSpec{Mode: replication.Incremental, Batch: n}, n)
			for i, r := range replicas {
				e, _ := mobile.Heap().EntryOf(r)
				e.Touch(time.Unix(int64(1000+i), 0)) // the tail is the newest
			}
			return replicas[n-1]
		}()
		before := liveHeap()
		if got := mobile.EvictColdest(1); got != n-1 {
			t.Fatalf("evicted %d, want %d", got, n-1)
		}
		freed := int64(before) - int64(liveHeap())
		if !freedEnough(freed, n-1) {
			t.Fatalf("evicting %d replicas of %d bytes freed %d bytes: the survivor pins their frame", n-1, size, freed)
		}
		t.Logf("evicting %d replicas of %d bytes freed %d bytes", n-1, size, freed)
		if tail.Data[0] != n {
			t.Fatal("the surviving replica lost its bytes")
		}
	})
	t.Run("evict a cluster", func(t *testing.T) {
		master, mobile := sitePair(t, "mem", WithoutTelemetry())
		_, head := blobChain(t, master, n, size)
		spec := replication.GetSpec{Mode: replication.Incremental, Batch: n, Clustered: true}
		chainOf(t, mobile, head, spec, 1)
		before := liveHeap()
		func() {
			e, _ := mobile.Heap().Get(objmodel.OID(head.OID))
			if got, err := mobile.Evict(e.Obj, false); err != nil || got != n {
				t.Fatalf("evict: %d %v", got, err)
			}
		}()
		freed := int64(before) - int64(liveHeap())
		if !freedEnough(freed, n) {
			t.Fatalf("evicting a %d x %d cluster freed %d bytes: its frame is still held", n, size, freed)
		}
		t.Logf("evicting a %d x %d cluster freed %d bytes", n, size, freed)
	})
	t.Run("snapshot restored twice", func(t *testing.T) {
		master, _ := sitePair(t, "mem")
		chain, _ := blobChain(t, master, 1, size)
		obj, want := chain[0], bytes.Clone(chain[0].Data)
		snap, err := master.Engine().CaptureSnapshot(obj)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			obj.Data[0], obj.Data[size-1] = 0xAB, 0xCD
			if err := master.Engine().RestoreSnapshot(obj, snap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(obj.Data, want) {
				t.Fatalf("restore %d did not bring the snapshot back: the edit wrote into it", round+1)
			}
		}
	})
	t.Run("pulled update", func(t *testing.T) {
		master, mobile := sitePair(t, "mem")
		pub := master.EnableDissemination()
		chain, head := blobChain(t, master, 1, size)
		replica := chainOf(t, mobile, head, replication.DefaultSpec, 1)[0]
		chain[0].Data[0] = 0x77
		if err := master.MarkUpdated(chain[0]); err != nil {
			t.Fatal(err)
		}
		pull := func() dissemination.Update {
			t.Helper()
			ups, err := pub.Pull(0)
			if err != nil || len(ups) != 1 {
				t.Fatalf("pull: %d updates, %v", len(ups), err)
			}
			return ups[0]
		}
		u := pull()
		logged := bytes.Clone(u.State)
		if err := dissemination.NewApplier(mobile.Engine()).Apply(&u); err != nil {
			t.Fatal(err)
		}
		if replica.Data[0] != 0x77 {
			t.Fatal("the pulled update did not reach the replica")
		}
		for j := range replica.Data {
			replica.Data[j] = 0
		}
		if !bytes.Equal(pull().State, logged) {
			t.Fatal("writing the replica changed the publisher's log")
		}
	})
}
