package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, dir string) (*Store, *Recovered) {
	t.Helper()
	s, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return s, rec
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir)
	if len(rec.Records()) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(rec.Records()))
	}
	want := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := openT(t, dir)
	defer s2.Close()
	got := rec2.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if rec2.DiscardedTail != 0 {
		t.Fatalf("clean log discarded %d bytes", rec2.DiscardedTail)
	}
}

func TestIncarnationBumpsPerOpen(t *testing.T) {
	dir := t.TempDir()
	var last uint64
	for i := 1; i <= 3; i++ {
		s, _ := openT(t, dir)
		if s.Incarnation() <= last {
			t.Fatalf("open %d: incarnation %d not greater than %d", i, s.Incarnation(), last)
		}
		last = s.Incarnation()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if last != 3 {
		t.Fatalf("third open incarnation %d, want 3", last)
	}
}

func TestBindSiteID(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if s.SiteID() != 0 {
		t.Fatalf("fresh dir has site id %d", s.SiteID())
	}
	if err := s.BindSiteID(42); err != nil {
		t.Fatal(err)
	}
	if err := s.BindSiteID(42); err != nil {
		t.Fatalf("rebinding same id: %v", err)
	}
	if err := s.BindSiteID(7); !errors.Is(err, ErrSiteIDMismatch) {
		t.Fatalf("want ErrSiteIDMismatch, got %v", err)
	}
	s.Close()

	s2, _ := openT(t, dir)
	defer s2.Close()
	if s2.SiteID() != 42 {
		t.Fatalf("site id not persisted: %d", s2.SiteID())
	}
	if err := s2.BindSiteID(7); !errors.Is(err, ErrSiteIDMismatch) {
		t.Fatalf("want ErrSiteIDMismatch after reopen, got %v", err)
	}
}

// TestTornTail truncates the log mid-record at every possible byte
// boundary of the final record and checks replay keeps the prefix and
// discards the tail without error.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Append([]byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("torn-record-payload")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	logPath := filepath.Join(dir, logName)
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := len(logMagic) + frameHeader + len("keep-me")
	for cut := firstEnd + 1; cut < len(full); cut++ {
		if err := os.WriteFile(logPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec := openT(t, dir)
		if len(rec.Log) != 1 || string(rec.Log[0]) != "keep-me" {
			t.Fatalf("cut %d: recovered %q", cut, rec.Log)
		}
		if rec.DiscardedTail != cut-firstEnd {
			t.Fatalf("cut %d: discarded %d, want %d", cut, rec.DiscardedTail, cut-firstEnd)
		}
		// The torn bytes must be gone: appending then replaying again
		// yields exactly keep-me + the new record.
		if err := s2.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3, rec3 := openT(t, dir)
		if len(rec3.Log) != 2 || string(rec3.Log[1]) != "after" {
			t.Fatalf("cut %d: post-truncate replay %q", cut, rec3.Log)
		}
		s3.Close()
		// Restore the full log for the next cut.
		if err := os.WriteFile(logPath, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBitFlipDiscardsTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	logPath := filepath.Join(dir, logName)
	raw, _ := os.ReadFile(logPath)
	// Flip a bit inside the second record's payload: replay keeps record 0
	// and discards records 1 and 2 (append-only logs cannot trust anything
	// after the first bad frame).
	recLen := frameHeader + len("record-0")
	raw[len(logMagic)+recLen+frameHeader+2] ^= 0x40
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	defer s2.Close()
	if len(rec.Log) != 1 || string(rec.Log[0]) != "record-0" {
		t.Fatalf("recovered %q, want only record-0", rec.Log)
	}
	if rec.DiscardedTail == 0 {
		t.Fatal("no tail discarded")
	}
}

func TestCompactSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for i := 0; i < 10; i++ {
		if err := s.Append([]byte(fmt.Sprintf("log-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := s.LogSize()
	if err := s.Compact([][]byte{[]byte("snap-a"), []byte("snap-b")}); err != nil {
		t.Fatal(err)
	}
	if s.LogSize() >= before {
		t.Fatalf("log not truncated: %d -> %d", before, s.LogSize())
	}
	if err := s.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, rec := openT(t, dir)
	defer s2.Close()
	if want := [][]byte{[]byte("snap-a"), []byte("snap-b")}; len(rec.Snapshot) != 2 ||
		!bytes.Equal(rec.Snapshot[0], want[0]) || !bytes.Equal(rec.Snapshot[1], want[1]) {
		t.Fatalf("snapshot %q", rec.Snapshot)
	}
	if len(rec.Log) != 1 || string(rec.Log[0]) != "post-compact" {
		t.Fatalf("log after compact %q", rec.Log)
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()

	s2, rec := openT(t, dir)
	defer s2.Close()
	if len(rec.Log) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Log), writers*per)
	}
	if rec.DiscardedTail != 0 {
		t.Fatalf("concurrent appends interleaved corruptly: %d bytes discarded", rec.DiscardedTail)
	}
}

func TestCloseIdempotentAndAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := s.Compact(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: %v", err)
	}
}

func TestBadHeadersRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("NOTAWAL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad log header: %v", err)
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, snapName), []byte("garbage-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad snapshot header: %v", err)
	}
}

// TestOldFormatRefused: a log or a snapshot in record format 1 is refused
// with ErrOldFormat, and no manifest is written beside it.
func TestOldFormatRefused(t *testing.T) {
	for _, old := range []struct{ file, magic string }{{logName, format1LogMagic}, {snapName, format1SnapMagic}} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, old.file), AppendFrame([]byte(old.magic), []byte("rec")), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("%s in format 1: %v, want ErrOldFormat", old.file, err)
		}
		if _, err := os.Stat(filepath.Join(dir, manifestName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s in format 1: a manifest was written (%v)", old.file, err)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	if err := s.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v", err)
	}
}
