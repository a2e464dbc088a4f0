package consensus

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"obiwan/internal/wal"
)

// walLogName / walLogMagic mirror internal/wal's on-disk layout so the
// fuzzer can corrupt a real store's tail. Pinned by TestWalLayoutPinned.
const (
	walLogName  = "wal.log"
	walLogMagic = "OBIWAL2\n"
)

func TestWalLayoutPinned(t *testing.T) {
	dir := t.TempDir()
	w, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("pin")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walLogName))
	if err != nil {
		t.Fatalf("wal layout moved: %v", err)
	}
	if !bytes.HasPrefix(raw, []byte(walLogMagic)) {
		t.Fatalf("wal magic moved: % x", raw[:min(len(raw), 8)])
	}
}

// FuzzFoldRecords drives the consensus record fold over arbitrary record
// streams — the state an acceptor wakes up to after the WAL layer has
// already dropped a torn tail. It asserts the recovery contract:
//
//   - never panic;
//   - the log is always a contiguous 1..n prefix (prefix-consistency);
//   - folding is a fixed point: re-encoding the folded state and folding
//     again yields the same state.
func FuzzFoldRecords(f *testing.F) {
	// Seeds: a clean stream, a truncated/overwritten suffix, a vote
	// change, corrupt record bodies, junk kinds.
	f.Add(encodeMeta(3, "site-a"), encodeEntry(Entry{Term: 3, Index: 1, Data: []byte("x")}), encodeEntry(Entry{Term: 3, Index: 2, Data: []byte("y")}))
	f.Add(encodeEntry(Entry{Term: 1, Index: 1, Data: []byte("a")}), encodeTrunc(1), encodeEntry(Entry{Term: 2, Index: 1, Data: []byte("b")}))
	f.Add(encodeMeta(1, "a"), encodeMeta(2, "b"), encodeEntry(Entry{Term: 2, Index: 1}))
	f.Add([]byte{recEntry, 0xff}, []byte{recMeta}, []byte{0x7f, 1, 2})
	f.Add(encodeEntry(Entry{Term: 1, Index: 5, Data: []byte("gap")}), encodeTrunc(99), []byte{})

	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		records := [][]byte{a, b, c}
		term, voted, log := foldRecords(records)
		for i, ent := range log {
			if ent.Index != uint64(i)+1 {
				t.Fatalf("slot %d holds index %d: log is not a contiguous prefix", i, ent.Index)
			}
		}
		reenc := [][]byte{encodeMeta(term, voted)}
		for _, ent := range log {
			reenc = append(reenc, encodeEntry(ent))
		}
		term2, voted2, log2 := foldRecords(reenc)
		// append-to-nil normalizes empty vs nil slices for DeepEqual.
		log = append([]Entry(nil), log...)
		log2 = append([]Entry(nil), log2...)
		if term2 != term || voted2 != voted || !reflect.DeepEqual(log2, log) {
			t.Fatalf("fold not a fixed point: (%d,%q,%d entries) vs (%d,%q,%d entries)",
				term, voted, len(log), term2, voted2, len(log2))
		}
	})
}

// FuzzStoreTailCorruption writes a real consensus store, then truncates or
// flips bytes at the tail of the backing WAL file — the disk a member
// finds after a crash mid-append. OpenStore must recover a
// prefix-consistent acceptor: a contiguous log that is a prefix of what
// was acknowledged, with term/vote no newer than what the surviving
// records carry, and the store must stay usable (appendable) afterwards.
func FuzzStoreTailCorruption(f *testing.F) {
	f.Add(uint(0), uint8(0))    // pristine
	f.Add(uint(1), uint8(0))    // drop 1 byte
	f.Add(uint(17), uint8(0))   // drop into a frame body
	f.Add(uint(0), uint8(1))    // flip last byte
	f.Add(uint(5), uint8(0x80)) // flip high bit 5 bytes in

	f.Fuzz(func(t *testing.T, chop uint, flip uint8) {
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetState(4, "site-b"); err != nil {
			t.Fatal(err)
		}
		var want []Entry
		for i := uint64(1); i <= 6; i++ {
			ent := Entry{Term: 4, Index: i, Data: []byte{byte(i), 0xAA}}
			if err := s.Append(ent); err != nil {
				t.Fatal(err)
			}
			want = append(want, ent)
		}
		if err := s.TruncateFrom(6); err != nil {
			t.Fatal(err)
		}
		want = want[:5]
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(dir, walLogName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int(chop) < len(raw)-len(walLogMagic) {
			raw = raw[:len(raw)-int(chop)]
		}
		if flip != 0 && len(raw) > len(walLogMagic) {
			pos := len(raw) - 1 - int(chop)%8
			if pos >= len(walLogMagic) && pos < len(raw) {
				raw[pos] ^= flip
			}
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		s2, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("reopen on corrupted tail: %v", err)
		}
		term, voted := s2.State()
		if term > 4 || (term == 4 && voted != "site-b") || (term != 0 && term != 4) {
			t.Fatalf("recovered vote (%d,%q) was never persisted", term, voted)
		}
		got := s2.Slice(1, 0)
		if uint64(len(got)) != s2.LastIndex() {
			t.Fatalf("Slice/LastIndex disagree: %d vs %d", len(got), s2.LastIndex())
		}
		// Prefix-consistency: whatever survived is a prefix of some state
		// the store passed through. The store went log=[1..5] then a
		// truncated slot 6, so any recovered log must be a prefix of
		// want, except that a lost trailing truncate record may leave
		// slot 6 visible again — also a state that was acknowledged.
		ref := append(append([]Entry(nil), want...), Entry{Term: 4, Index: 6, Data: []byte{6, 0xAA}})
		if len(got) > len(ref) {
			t.Fatalf("recovered %d entries, more than ever written", len(got))
		}
		for i, ent := range got {
			if ent.Index != uint64(i)+1 {
				t.Fatalf("recovered log has a gap at slot %d (index %d)", i, ent.Index)
			}
			if flip == 0 && !reflect.DeepEqual(ent, ref[i]) {
				t.Fatalf("recovered entry %d = %+v; want %+v", i, ent, ref[i])
			}
		}
		// The store must remain an acceptor: append past the recovered
		// tip and read it back after a clean reopen.
		next := Entry{Term: 5, Index: s2.LastIndex() + 1, Data: []byte("post")}
		if err := s2.Append(next); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		s3, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("third open: %v", err)
		}
		if got, ok := s3.EntryAt(next.Index); !ok || !reflect.DeepEqual(got, next) {
			t.Fatalf("post-recovery append lost: %+v ok=%v", got, ok)
		}
		if err := s3.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
