// Package wal implements the durability substrate behind
// site.WithDurability: an append-only, CRC32C-framed, fsync-batched log
// plus a snapshot file and a small manifest, all living in one directory.
//
// The original OBIWAN prototype kept every site purely in memory — a
// crashed process lost its master heap, its bindings, and every dirty
// offline edit, stranding remote proxies forever. This package gives a
// site a redo log: the replication engine journals master mutations and
// replica-side dirty edits as opaque records; on restart the site replays
// the snapshot and then the log, rebuilds its heap, and resumes with a
// fresh, persisted incarnation number so peers never confuse the reborn
// site with its previous life.
//
// On-disk layout (per site directory):
//
//	manifest  — magic + incarnation counter + site id, replaced atomically
//	snapshot  — magic + framed records: the compacted state at compaction time
//	wal.log   — magic + framed records appended since the last compaction
//
// Record framing is self-delimiting and corruption-evident:
//
//	[length u32 LE][crc32c(payload) u32 LE][payload]
//
// Replay tolerates a torn tail: a final record whose header or payload is
// truncated, or whose CRC does not match, is discarded (along with
// everything after it) and the log is truncated back to the last good
// record — the expected outcome of power loss mid-append. The snapshot is
// written to a temporary file, fsynced, and renamed, so it is either the
// old one or the new one, never a torn hybrid.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	logName      = "wal.log"
	snapName     = "snapshot"
	manifestName = "manifest"

	// The log and snapshot magics name the record format. Format 2 holds
	// records whose values carry no names (wire protocol revision 3);
	// format 1's named their types, interfaces and frontier types. The
	// manifest's layout did not change with it.
	logMagic         = "OBIWAL2\n"
	snapMagic        = "OBISNP2\n"
	format1LogMagic  = "OBIWAL1\n"
	format1SnapMagic = "OBISNP1\n"
	manMagic         = "OBIMAN1\n"

	// frameHeader is the per-record overhead: u32 length + u32 CRC32C.
	frameHeader = 8
)

// MaxRecord bounds one record's payload; larger appends are rejected so a
// corrupt length prefix can never be mistaken for a real record either.
const MaxRecord = 64 << 20

// Errors returned by the store.
var (
	// ErrClosed is returned for operations on a closed store.
	ErrClosed = errors.New("wal: store closed")
	// ErrCorrupt is returned when a file's magic header or a snapshot
	// record is structurally invalid (torn log tails are NOT corrupt —
	// they are silently discarded).
	ErrCorrupt = errors.New("wal: corrupt")
	// ErrTooLarge is returned by Append for payloads over MaxRecord.
	ErrTooLarge = errors.New("wal: record too large")
	// ErrSiteIDMismatch is returned by BindSiteID when the directory
	// already belongs to a different site id.
	ErrSiteIDMismatch = errors.New("wal: site id mismatch")
	// ErrOldFormat is returned by Open for a directory written in an
	// older record format. Open decodes no record of such a directory and
	// writes nothing to it.
	ErrOldFormat = errors.New("wal: directory written in an older record format")
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one framed record to buf and returns the result.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// ReplayFrames parses a framed record stream (the bytes after a file's
// magic header). It returns every complete, CRC-valid record and the
// offset at which the good prefix ends: goodLen == len(buf) for a clean
// stream, anything less marks a torn or corrupt tail that the caller
// should truncate away. ReplayFrames never fails — a broken tail is data
// loss already, not an error to surface.
func ReplayFrames(buf []byte) (records [][]byte, goodLen int) {
	off := 0
	for {
		if len(buf)-off < frameHeader {
			return records, off
		}
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if n > MaxRecord || n > len(buf)-off-frameHeader {
			return records, off
		}
		payload := buf[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return records, off
		}
		rec := make([]byte, n)
		copy(rec, payload)
		records = append(records, rec)
		off += frameHeader + n
	}
}

// Recovered is what Open found on disk.
type Recovered struct {
	// Snapshot holds the records of the snapshot file, oldest first (nil
	// when no snapshot exists).
	Snapshot [][]byte
	// Log holds the records appended since the snapshot was taken.
	Log [][]byte
	// DiscardedTail is how many bytes of torn tail were dropped from the
	// log during replay (0 for a clean log).
	DiscardedTail int
}

// Records returns the full replay stream: snapshot records then log
// records.
func (r *Recovered) Records() [][]byte {
	out := make([][]byte, 0, len(r.Snapshot)+len(r.Log))
	out = append(out, r.Snapshot...)
	return append(out, r.Log...)
}

// Store is one site's durability directory. Appends are safe for
// concurrent use; concurrent appenders share fsyncs (group commit).
type Store struct {
	dir         string
	incarnation uint64

	mu     sync.Mutex // serializes writes, truncation, close
	f      *os.File
	size   int64 // log size including magic
	closed bool
	seq    uint64 // count of writes issued

	syncMu  sync.Mutex // group-commit: one fsync covers all queued writers
	syncSeq uint64     // writes covered by the last fsync
	syncObs func(wait, fsync time.Duration)

	manMu  sync.Mutex
	siteID uint64
}

// SetSyncObserver installs fn to be called after every group-commit
// round with the time the writer spent queued behind another writer's
// fsync (wait) and the duration of the fsync it issued itself (fsync,
// zero when a later writer's sync already covered it). Nil removes the
// observer. This keeps the wal package free of telemetry dependencies
// while letting the site layer feed its wal.fsync_ns and
// wal.fsync.wait_ns histograms. fn runs with the sync mutex held —
// keep it trivial.
func (s *Store) SetSyncObserver(fn func(wait, fsync time.Duration)) {
	s.syncMu.Lock()
	s.syncObs = fn
	s.syncMu.Unlock()
}

// Open opens (creating if needed) the durability directory at dir, bumps
// and persists the incarnation counter, and replays what is on disk. The
// returned store is positioned to append after the last good log record.
// A directory in an older record format is refused (ErrOldFormat) before
// the incarnation is bumped: it is left as it was.
func Open(dir string) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{dir: dir}

	// Both files are read, and an older format refused, before anything in
	// the directory is written.
	snap, snapErr := os.ReadFile(filepath.Join(dir, snapName))
	if snapErr != nil && !errors.Is(snapErr, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: %w", snapErr)
	}
	logPath := filepath.Join(dir, logName)
	raw, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if bytes.HasPrefix(snap, []byte(format1SnapMagic)) || bytes.HasPrefix(raw, []byte(format1LogMagic)) {
		return nil, nil, fmt.Errorf("%w: record format 1", ErrOldFormat)
	}

	inc, siteID, err := s.readManifest()
	if err != nil {
		return nil, nil, err
	}
	s.incarnation = inc + 1
	s.siteID = siteID
	if err := s.writeManifest(s.incarnation, siteID); err != nil {
		return nil, nil, err
	}

	rec := &Recovered{}
	if snapErr == nil {
		if len(snap) < len(snapMagic) || string(snap[:len(snapMagic)]) != snapMagic {
			return nil, nil, fmt.Errorf("%w: bad snapshot header", ErrCorrupt)
		}
		records, good := ReplayFrames(snap[len(snapMagic):])
		if good != len(snap)-len(snapMagic) {
			// Snapshots are written atomically; a bad record means the
			// file was tampered with, not torn.
			return nil, nil, fmt.Errorf("%w: snapshot damaged at offset %d", ErrCorrupt, good)
		}
		rec.Snapshot = records
	}

	f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	switch {
	case len(raw) == 0:
		if _, err := f.WriteString(logMagic); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: init log: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: init log: %w", err)
		}
		s.size = int64(len(logMagic))
	case len(raw) < len(logMagic) || string(raw[:len(logMagic)]) != logMagic:
		_ = f.Close()
		return nil, nil, fmt.Errorf("%w: bad log header", ErrCorrupt)
	default:
		records, good := ReplayFrames(raw[len(logMagic):])
		rec.Log = records
		rec.DiscardedTail = len(raw) - len(logMagic) - good
		s.size = int64(len(logMagic) + good)
		if rec.DiscardedTail > 0 {
			// Torn tail: truncate back to the last good record so the
			// next append starts on a frame boundary.
			if err := f.Truncate(s.size); err != nil {
				_ = f.Close()
				return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				_ = f.Close()
				return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		if _, err := f.Seek(s.size, 0); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	s.f = f
	return s, rec, nil
}

// Incarnation returns this opening's incarnation number (≥1, strictly
// increasing across Opens of the same directory).
func (s *Store) Incarnation() uint64 { return s.incarnation }

// SiteID returns the site id recorded in the manifest (0 until BindSiteID
// runs on a fresh directory).
func (s *Store) SiteID() uint16 {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	return uint16(s.siteID)
}

// BindSiteID pins the directory to a site identity: the first call
// persists id; later Opens must bind the same id or fail, so a WAL can
// never replay into a heap that mints foreign OIDs.
func (s *Store) BindSiteID(id uint16) error {
	s.manMu.Lock()
	defer s.manMu.Unlock()
	if s.siteID == uint64(id) {
		return nil
	}
	if s.siteID != 0 {
		return fmt.Errorf("%w: directory belongs to site %d, not %d", ErrSiteIDMismatch, s.siteID, id)
	}
	s.siteID = uint64(id)
	return s.writeManifest(s.incarnation, s.siteID)
}

// readManifest loads (incarnation, siteID), defaulting to zeros when the
// manifest does not exist yet.
func (s *Store) readManifest() (inc, siteID uint64, err error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	if len(raw) < len(manMagic) || string(raw[:len(manMagic)]) != manMagic {
		return 0, 0, fmt.Errorf("%w: bad manifest header", ErrCorrupt)
	}
	rest := raw[len(manMagic):]
	inc, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: manifest incarnation", ErrCorrupt)
	}
	siteID, m := binary.Uvarint(rest[n:])
	if m <= 0 {
		return 0, 0, fmt.Errorf("%w: manifest site id", ErrCorrupt)
	}
	return inc, siteID, nil
}

// writeManifest atomically replaces the manifest.
func (s *Store) writeManifest(inc, siteID uint64) error {
	buf := []byte(manMagic)
	buf = binary.AppendUvarint(buf, inc)
	buf = binary.AppendUvarint(buf, siteID)
	return s.atomicWrite(manifestName, buf)
}

// atomicWrite writes name via a temp file + fsync + rename + dir fsync.
func (s *Store) atomicWrite(name string, data []byte) error {
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return s.syncDir()
}

// syncDir fsyncs the directory so renames and creations are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append durably appends one record. It returns only after the record is
// fsynced; concurrent appenders coalesce into shared fsyncs (the group
// commit: the first writer to reach the sync mutex covers everything
// written before it looked).
func (s *Store) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	frame := AppendFrame(nil, payload)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	_, err := s.f.Write(frame)
	if err == nil {
		s.size += int64(len(frame))
		s.seq++
	}
	seq := s.seq
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	return s.syncTo(seq)
}

// syncTo ensures every write up to seq is fsynced, sharing the fsync with
// any other writer that got there first.
func (s *Store) syncTo(seq uint64) error {
	waitStart := time.Now()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	wait := time.Since(waitStart)
	if s.syncSeq >= seq {
		if s.syncObs != nil {
			s.syncObs(wait, 0) // covered by a later writer's fsync: pure wait
		}
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	cur := s.seq
	f := s.f
	s.mu.Unlock()
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if s.syncObs != nil {
		s.syncObs(wait, time.Since(start))
	}
	s.syncSeq = cur
	return nil
}

// LogSize returns the log's current size in bytes (magic included) —
// the compaction trigger input.
func (s *Store) LogSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Compact atomically replaces the snapshot with records and truncates the
// log. Crash-safe at every step: before the snapshot rename the old
// snapshot + full log recover; between the rename and the truncation the
// new snapshot plus the (now redundant, idempotent) log records recover.
// The caller must guarantee records reflect every append issued so far —
// hold off new appends while capturing them.
func (s *Store) Compact(records [][]byte) error {
	buf := []byte(snapMagic)
	for _, r := range records {
		if len(r) > MaxRecord {
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(r))
		}
		buf = AppendFrame(buf, r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.atomicWrite(snapName, buf); err != nil {
		return err
	}
	if err := s.f.Truncate(int64(len(logMagic))); err != nil {
		return fmt.Errorf("wal: truncate log: %w", err)
	}
	if _, err := s.f.Seek(int64(len(logMagic)), 0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	s.size = int64(len(logMagic))
	return nil
}

// Close flushes and closes the store. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// Abandon closes the store without a final flush — the crash-simulation
// exit used by chaos tests (Site.Kill). Records already fsynced by Append
// survive; nothing else is guaranteed.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	_ = s.f.Close()
}
