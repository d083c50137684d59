// Package wal is the durable write plane's append-only log: every edge
// batch the service acknowledges is framed, checksummed and written here
// BEFORE it is applied to the in-memory store, so a crash loses nothing a
// client was told succeeded.
//
// The log is segmented. Each segment file (wal-<first>.seg, named by the
// first batch id it may contain, zero-padded hex) starts with a fixed
// header and carries a sequence of records:
//
//	segment header:  u32 magic | u32 format | u64 first batch id
//	record frame:    u32 payload length | u32 CRC32C(payload) | payload
//	record payload:  u64 batch id | u32 op count | ops × (u8 kind, u32 u, u32 v)
//
// All integers are little-endian; the CRC is Castagnoli (the polynomial
// with hardware support on both amd64 and arm64). Batch ids increase
// monotonically across the whole log and are never reused — they are the
// apply-once watermark the rest of the write plane keys on.
//
// Durability is a policy, not a constant: SyncAlways fsyncs every append
// before it returns (an acknowledged write is on stable storage),
// SyncInterval lets a background loop fsync every SyncEvery (bounded loss
// window, near-zero per-append cost), SyncOff leaves flushing to the OS
// (benchmarks, bulk loads). Rotation closes a segment past SegmentBytes
// and starts the next, so checkpoint truncation reclaims space in whole
// files.
//
// Checkpoints are the log's garbage collector: Checkpoint durably writes
// a caller-provided state spill covering every batch through some id
// (checkpoint-<through>.ck, written via temp file + rename), then deletes
// the checkpoint it supersedes and the segments that id fully covers.
// Recovery (Open on a non-empty directory) locates the newest intact
// checkpoint, truncates a torn tail off the last segment — a partial
// record can only be a write the crash interrupted, which was never
// acknowledged — and exposes the surviving records for replay above it.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/graph"
)

// Op is an alias of graph.EdgeOp, the write plane's one op type, kept
// for callers that spell it wal.Op (the benchmark's Subscribe hook).
type Op = graph.EdgeOp

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Append returns: an acknowledged batch
	// survives power loss. The default, and the only policy under which
	// the crash-recovery property ("every 200 is recovered") is exact.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background loop every Options.SyncEvery:
	// a crash can lose at most that window of acknowledged batches.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS flushes when it pleases.
	SyncOff
)

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures a Log. The zero value means SyncAlways, a 64 MiB
// rotation threshold and a 100ms background-sync interval.
type Options struct {
	Sync         SyncPolicy
	SyncEvery    time.Duration // SyncInterval cadence; <= 0 means 100ms
	SegmentBytes int64         // rotation threshold; <= 0 means 64 MiB
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

const (
	segMagic      = 0x50535747 // "PSWG"
	segFormat     = 1
	segHeaderSize = 16
	frameHeader   = 8 // u32 len | u32 crc

	segPrefix  = "wal-"
	segSuffix  = ".seg"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ck"
	// legacySuffix names the delta checkpoints older builds wrote beside
	// their full ones. They never truncated segments, so the log above
	// the full checkpoint covers them, and recovery deletes them unread.
	legacySuffix = ".dck"

	// maxRecordBytes bounds one record's payload: a corrupt length prefix
	// must not get to allocate the machine. 9 bytes/op puts the op limit
	// well past any batch the HTTP layer admits.
	maxRecordBytes = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that is structurally present but fails its
// checksum or decoding somewhere OTHER than the log's torn tail — real
// corruption recovery must not paper over.
var ErrCorrupt = errors.New("wal: corrupt record")

// Batch is one recovered record.
type Batch struct {
	ID  uint64
	Ops []graph.EdgeOp
}

// Recovery describes what Open found on disk.
type Recovery struct {
	// CheckpointPath is the newest checkpoint file whose CRC trailer
	// validates, "" if none. Recovery decodes it, then replays the log
	// above CheckpointThrough. A newer checkpoint that fails validation
	// is set aside as .corrupt, and recovery falls back to the next older
	// one and a longer replay.
	CheckpointPath string
	// CheckpointThrough is the batch id the checkpoint covers through.
	CheckpointThrough uint64
	// Batches holds every intact record found in the segments, ascending
	// by id. Replay applies the suffix above the store's own watermark.
	Batches []Batch
	// TornBytes is how many trailing bytes were dropped from the last
	// segment as an interrupted (unacknowledged) write.
	TornBytes int64
}

// Replay invokes fn for every recovered batch with id > after, in order.
func (r *Recovery) Replay(after uint64, fn func(id uint64, ops []graph.EdgeOp) error) error {
	for _, b := range r.Batches {
		if b.ID <= after {
			continue
		}
		if err := fn(b.ID, b.Ops); err != nil {
			return err
		}
	}
	return nil
}

// Stats are the log's observability counters for /stats and /metrics.
type Stats struct {
	Appends        int64 // batches appended this process lifetime
	AppendedBytes  int64
	Syncs          int64 // explicit fsyncs issued
	Rotations      int64 // segments started (beyond the first)
	Checkpoints    int64 // checkpoints written this process lifetime
	SegmentsLive   int64 // segment files currently on disk
	SegmentBytes   int64 // bytes across live segments
	LastBatch      uint64
	LastCheckpoint uint64 // batch id the newest checkpoint covers through
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends serialize internally.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	size     int64 // bytes written to the active segment
	next     uint64
	segments []segment // ascending by first id; last is active
	dirty    bool      // buffered/unsynced appends (interval & off policies)
	closed   bool

	// lastCkpt is the through id of the newest checkpoint: the public
	// replay-debt watermark, and the file the next checkpoint supersedes.
	lastCkpt atomic.Uint64
	stopSync chan struct{}
	syncDone chan struct{}

	appends       atomic.Int64
	appendedBytes atomic.Int64
	syncs         atomic.Int64
	rotations     atomic.Int64
	checkpoints   atomic.Int64

	// subs fire after every successful Append (never for failed/annulled
	// appends), under l.mu and in subscription order. See Subscribe.
	subs []func(id uint64, ops []graph.EdgeOp)
}

type segment struct {
	path  string
	first uint64
	// last is the highest record id observed in the segment; maintained
	// for closed segments so truncation knows what a checkpoint covers.
	last uint64
	size int64
}

// Open opens (creating if needed) the log in dir and recovers whatever
// state a previous process left: the newest intact checkpoint and every
// intact record, with a torn tail truncated off the last segment. The
// returned Log is positioned to append the next batch id after everything
// recovered; appending always starts a fresh segment, so a recovered file
// is never written again.
func Open(dir string, opt Options) (*Log, *Recovery, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opt: opt, next: 1}
	rec := &Recovery{}
	if err := l.scanCheckpoints(rec); err != nil {
		return nil, nil, err
	}
	if err := l.scanSegments(rec); err != nil {
		return nil, nil, err
	}
	if rec.CheckpointThrough >= l.next {
		l.next = rec.CheckpointThrough + 1
	}
	l.lastCkpt.Store(rec.CheckpointThrough)
	if opt.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

// NextBatch returns the id the next Append will use by default.
func (l *Log) NextBatch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix))
}

func ckptPath(dir string, through uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, through, ckptSuffix))
}

// parseSeqName extracts the hex sequence number out of prefix<hex>suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// scanCheckpoints finds the newest checkpoint whose trailer validates
// and deletes the older ones and any legacy delta checkpoint. A
// checkpoint that fails validation is renamed aside rather than deleted
// — it is evidence.
func (l *Log) scanCheckpoints(rec *Recovery) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var ckpts []uint64
	for _, e := range entries {
		if v, ok := parseSeqName(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, v)
		} else if _, ok := parseSeqName(e.Name(), ckptPrefix, legacySuffix); ok {
			_ = os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	for _, through := range ckpts {
		path := ckptPath(l.dir, through)
		if rec.CheckpointPath == "" {
			if err := VerifyFileCRC(path); err == nil {
				rec.CheckpointPath = path
				rec.CheckpointThrough = through
				continue
			}
			// Unreadable newest checkpoint: set it aside and fall back to
			// the next one; the log tail still covers the gap.
			_ = os.Rename(path, path+".corrupt")
			continue
		}
		_ = os.Remove(path)
	}
	return nil
}

// scanSegments reads every segment in order, collecting intact records
// and truncating a torn tail off the LAST segment. Corruption anywhere
// else is fatal: it cannot be explained by an interrupted final write.
func (l *Log) scanSegments(rec *Recovery) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		if v, ok := parseSeqName(e.Name(), segPrefix, segSuffix); ok {
			firsts = append(firsts, v)
		}
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	for i, first := range firsts {
		path := segPath(l.dir, first)
		isLast := i == len(firsts)-1
		seg := segment{path: path, first: first}
		good, torn, err := readSegment(path, first, func(b Batch) {
			rec.Batches = append(rec.Batches, b)
			seg.last = b.ID
			if b.ID >= l.next {
				l.next = b.ID + 1
			}
		})
		if err != nil {
			if !isLast || !errors.Is(err, errTornTail) {
				return fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
			}
			// Interrupted final write: drop it. The batch was never
			// acknowledged (Append had not returned), so truncating is
			// the CORRECT recovery, not data loss.
			rec.TornBytes += torn
			if terr := os.Truncate(path, good); terr != nil {
				return fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(path), terr)
			}
		}
		if seg.last == 0 {
			// A record-less segment (a rotation or first-append the crash
			// interrupted before any record survived) holds nothing — and
			// keeping the file would collide with the O_EXCL create when
			// l.next reaches its name again. Delete it.
			if rerr := os.Remove(path); rerr != nil {
				return fmt.Errorf("wal: removing empty segment %s: %w", filepath.Base(path), rerr)
			}
			continue
		}
		seg.size = good
		l.segments = append(l.segments, seg)
	}
	return nil
}

// errTornTail distinguishes an interrupted trailing write from interior
// corruption inside readSegment.
var errTornTail = errors.New("wal: torn tail")

// readSegment streams one segment's records into emit. It returns the
// byte offset of the last intact record's end and, when the segment ends
// mid-record or with a bad checksum, how many bytes dangle past it along
// with errTornTail (or ErrCorrupt for structural violations that cannot
// be an interrupted append, like ids out of order).
func readSegment(path string, first uint64, emit func(Batch)) (good int64, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// A header-less segment can only be a file the crash cut off at
		// birth (created, nothing durable yet): treat the whole file as
		// torn tail rather than corruption.
		return 0, size, errTornTail
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != segMagic {
		return 0, 0, fmt.Errorf("%w: bad segment magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != segFormat {
		return 0, 0, fmt.Errorf("%w: segment format %d, want %d", ErrCorrupt, v, segFormat)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:16]); got != first {
		return 0, 0, fmt.Errorf("%w: segment header first id %d disagrees with name %d", ErrCorrupt, got, first)
	}
	good = segHeaderSize
	prev := uint64(0)
	var frame [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return good, 0, nil // clean end
			}
			return good, size - good, errTornTail
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		if n > maxRecordBytes {
			// A length this size is scribble, not an interrupted append —
			// unless it is the very tail, where a partial length write is
			// conceivable; either way nothing after it is trustworthy, and
			// only tail position makes it survivable.
			return good, size - good, errTornTail
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, size - good, errTornTail
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[4:8]) {
			return good, size - good, errTornTail
		}
		b, err := decodeRecord(payload)
		if err != nil {
			return good, 0, err
		}
		if b.ID < first || (prev != 0 && b.ID <= prev) {
			return good, 0, fmt.Errorf("%w: batch id %d after %d in segment starting at %d", ErrCorrupt, b.ID, prev, first)
		}
		prev = b.ID
		emit(b)
		good += frameHeader + int64(n)
	}
}

func decodeRecord(p []byte) (Batch, error) {
	if len(p) < 12 {
		return Batch{}, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, len(p))
	}
	id := binary.LittleEndian.Uint64(p[0:8])
	n := binary.LittleEndian.Uint32(p[8:12])
	if int64(len(p)-12) != int64(n)*9 {
		return Batch{}, fmt.Errorf("%w: record claims %d ops in %d bytes", ErrCorrupt, n, len(p))
	}
	if id == 0 {
		return Batch{}, fmt.Errorf("%w: record with batch id 0", ErrCorrupt)
	}
	ops := make([]graph.EdgeOp, n)
	off := 12
	for i := range ops {
		ops[i] = graph.EdgeOp{
			Remove: p[off] == 1,
			U:      graph.NodeID(int32(binary.LittleEndian.Uint32(p[off+1:]))),
			V:      graph.NodeID(int32(binary.LittleEndian.Uint32(p[off+5:]))),
		}
		off += 9
	}
	return Batch{ID: id, Ops: ops}, nil
}

func appendRecord(b []byte, id uint64, ops []graph.EdgeOp) []byte {
	payloadLen := 12 + 9*len(ops)
	b = binary.LittleEndian.AppendUint32(b, uint32(payloadLen))
	b = append(b, 0, 0, 0, 0) // CRC placeholder
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, op := range ops {
		k := byte(0)
		if op.Remove {
			k = 1
		}
		b = append(b, k)
		b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.V))
	}
	crc := crc32.Checksum(b[start:], crcTable)
	binary.LittleEndian.PutUint32(b[start-4:start], crc)
	return b
}

// openSegmentLocked starts a fresh segment whose first id is l.next.
func (l *Log) openSegmentLocked() error {
	if l.f != nil {
		if err := l.closeSegmentLocked(); err != nil {
			return err
		}
		l.rotations.Add(1)
	}
	path := segPath(l.dir, l.next)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segFormat)
	binary.LittleEndian.PutUint64(hdr[8:16], l.next)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.size = segHeaderSize
	l.segments = append(l.segments, segment{path: path, first: l.next, size: segHeaderSize})
	// Make the new name durable so recovery sees the segment even if no
	// record ever syncs into it.
	if l.opt.Sync != SyncOff {
		if err := syncDir(l.dir); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) closeSegmentLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.opt.Sync != SyncOff && l.dirty {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.syncs.Add(1)
		l.dirty = false
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.segments[len(l.segments)-1].size = l.size
	l.f = nil
	l.w = nil
	return nil
}

// Append logs one batch and returns its id. id 0 self-assigns the next
// id; a non-zero id (router-assigned, for worker logs) must be >= the
// next id — replays of already-logged ids are the CALLER's job to filter
// via the store watermark, the log itself never rewrites history. Under
// SyncAlways the record is on stable storage when Append returns; that
// is the moment the batch may be acknowledged.
func (l *Log) Append(id uint64, ops []graph.EdgeOp) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if id == 0 {
		id = l.next
	} else if id < l.next {
		return 0, fmt.Errorf("wal: batch id %d not monotonic (next is %d)", id, l.next)
	}
	if l.f == nil || l.size >= l.opt.SegmentBytes {
		// The segment's first id must equal l.next at creation.
		l.next = id
		if err := l.openSegmentLocked(); err != nil {
			return 0, err
		}
	}
	prevSize := l.size
	prevLast := l.segments[len(l.segments)-1].last
	rec := appendRecord(nil, id, ops)
	fail := func(err error) (uint64, error) {
		// A failed append must be ANNULLED, not abandoned: the record may
		// have partially reached the file, and a batch the caller was told
		// FAILED must never be replayed on the next boot. Truncate back to
		// the pre-append offset and rewind the bookkeeping; if even that
		// fails, fail-stop the log — refusing all further appends is
		// strictly better than acknowledging writes whose neighbors on
		// disk are records the clients saw rejected.
		l.w = bufio.NewWriterSize(l.f, 1<<16) // drop buffered bytes
		if terr := l.f.Truncate(prevSize); terr != nil {
			l.closed = true
			return 0, fmt.Errorf("wal: append failed (%v) and could not be annulled (%v); log fail-stopped", err, terr)
		}
		if _, serr := l.f.Seek(prevSize, io.SeekStart); serr != nil {
			l.closed = true
			return 0, fmt.Errorf("wal: append failed (%v) and could not be annulled (%v); log fail-stopped", err, serr)
		}
		l.size = prevSize
		l.segments[len(l.segments)-1].size = prevSize
		l.segments[len(l.segments)-1].last = prevLast
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(rec); err != nil {
		return fail(err)
	}
	l.size += int64(len(rec))
	l.segments[len(l.segments)-1].size = l.size
	l.segments[len(l.segments)-1].last = id
	if l.opt.Sync == SyncAlways {
		if err := l.w.Flush(); err != nil {
			return fail(err)
		}
		if err := l.f.Sync(); err != nil {
			return fail(err)
		}
		l.syncs.Add(1)
	} else {
		l.dirty = true
	}
	l.next = id + 1
	l.appends.Add(1)
	l.appendedBytes.Add(int64(len(rec)))
	for _, fn := range l.subs {
		fn(id, ops)
	}
	return id, nil
}

// Subscribe registers fn to run after every successfully durable Append
// with the batch's id and ops — the append-side watermark feed (derived
// state such as the hot-source tier compares it against the applied
// watermark to expose write-plane lag). Failed (annulled) appends never
// fire it. fn runs under the log's lock: it must be fast, must not call
// back into the log, and must not retain ops past the call. Subscribe
// during wiring, before writes flow.
func (l *Log) Subscribe(fn func(id uint64, ops []graph.EdgeOp)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, fn)
}

func (l *Log) syncLocked() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.syncs.Add(1)
	l.dirty = false
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Checkpoint durably writes a state spill covering every batch through
// the given id, removes the checkpoint it supersedes and truncates the
// segments it fully covers. write receives a buffered writer into a temp
// file; the file becomes visible (via rename) only after it is fully
// written, CRC-trailed and fsynced, so a crash mid-checkpoint leaves the
// previous checkpoint intact. through must not exceed the last appended
// batch's id.
func (l *Log) Checkpoint(through uint64, write func(io.Writer) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if through >= l.next {
		l.mu.Unlock()
		return fmt.Errorf("wal: checkpoint through %d beyond last batch %d", through, l.next-1)
	}
	l.mu.Unlock()
	// The spill itself runs outside the log mutex: it can be large, and
	// appends must not stall behind it. Multiple concurrent Checkpoint
	// calls would race the temp file; callers (the checkpointer loop)
	// serialize themselves.
	if err := writeFileCRC(l.dir, ckptPath(l.dir, through), write); err != nil {
		return err
	}
	l.checkpoints.Add(1)
	l.mu.Lock()
	defer l.mu.Unlock()
	// Remove the superseded checkpoints and the fully covered segments. A
	// closed segment is covered when its highest record id is <= through
	// (an empty closed segment — a rotation artifact — holds nothing and
	// always goes); the active segment never goes.
	if prev := l.lastCkpt.Load(); through < prev {
		// A stale spill lost the race to a newer checkpoint: it covers a
		// subset of what prev does, so the file it just wrote is garbage.
		_ = os.Remove(ckptPath(l.dir, through))
		return nil
	}
	// The superseded file may cover batch 0 (the bootstrap checkpoint) or
	// be absent (a fresh log); removing a missing file is a no-op.
	if prev := l.lastCkpt.Swap(through); prev != through {
		_ = os.Remove(ckptPath(l.dir, prev))
	}
	keep := l.segments[:0]
	for i, seg := range l.segments {
		active := i == len(l.segments)-1
		if !active && seg.last <= through {
			_ = os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	l.segments = keep
	return nil
}

// LastCheckpoint returns the batch id the newest checkpoint covers
// through (0 = none).
func (l *Log) LastCheckpoint() uint64 { return l.lastCkpt.Load() }

// AppendsSinceCheckpoint estimates the replay debt: batches appended
// beyond the newest checkpoint's coverage.
func (l *Log) AppendsSinceCheckpoint() int64 {
	l.mu.Lock()
	last := l.next - 1
	l.mu.Unlock()
	ck := l.lastCkpt.Load()
	if last <= ck {
		return 0
	}
	return int64(last - ck)
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs := int64(len(l.segments))
	var segBytes int64
	for _, s := range l.segments {
		segBytes += s.size
	}
	last := l.next - 1
	l.mu.Unlock()
	return Stats{
		Appends:        l.appends.Load(),
		AppendedBytes:  l.appendedBytes.Load(),
		Syncs:          l.syncs.Load(),
		Rotations:      l.rotations.Load(),
		Checkpoints:    l.checkpoints.Load(),
		SegmentsLive:   segs,
		SegmentBytes:   segBytes,
		LastBatch:      last,
		LastCheckpoint: l.lastCkpt.Load(),
	}
}

// Close flushes, fsyncs (under any policy — a graceful shutdown should
// not lose the interval window) and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.f != nil {
		if ferr := l.w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if ferr := l.f.Sync(); ferr != nil && err == nil {
			err = ferr
		}
		if ferr := l.f.Close(); ferr != nil && err == nil {
			err = ferr
		}
		l.f = nil
		l.w = nil
	}
	stop := l.stopSync
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	return err
}

// writeFileCRC writes path atomically: content plus a CRC32C trailer go
// to a temp file in dir, fsync, rename, fsync dir.
func writeFileCRC(dir, path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, "tmp-ckpt-*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmpPath := tmp.Name()
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmpPath)
		}
	}()
	cw := &crcWriter{w: bufio.NewWriterSize(tmp, 1<<20)}
	if err := write(cw); err != nil {
		return fmt.Errorf("wal: checkpoint spill: %w", err)
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[0:4], ckptTrailerMagic)
	binary.LittleEndian.PutUint32(trailer[4:8], cw.crc)
	if _, err := cw.w.Write(trailer[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := cw.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		return fmt.Errorf("wal: %w", err)
	}
	tmp = nil
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(dir)
}

const ckptTrailerMagic = 0x50534b43 // "PSKC"

type crcWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crcTable, p[:n])
	return n, err
}

// VerifyFileCRC checks a checkpoint file's trailer against its content.
func VerifyFileCRC(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() < 8 {
		return fmt.Errorf("%w: checkpoint of %d bytes", ErrCorrupt, fi.Size())
	}
	body := fi.Size() - 8
	br := bufio.NewReaderSize(io.LimitReader(f, body), 1<<20)
	var crc uint32
	buf := make([]byte, 1<<16)
	for {
		n, err := br.Read(buf)
		crc = crc32.Update(crc, crcTable, buf[:n])
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
	}
	var trailer [8]byte
	if _, err := f.ReadAt(trailer[:], body); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(trailer[0:4]) != ckptTrailerMagic {
		return fmt.Errorf("%w: checkpoint trailer magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(trailer[0:4]))
	}
	if got := binary.LittleEndian.Uint32(trailer[4:8]); got != crc {
		return fmt.Errorf("%w: checkpoint CRC %#x, want %#x", ErrCorrupt, got, crc)
	}
	return nil
}

// OpenCheckpoint opens a verified checkpoint's content for reading (the
// CRC trailer is excluded). Callers should have validated the CRC (Open
// does during recovery scan).
func OpenCheckpoint(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() < 8 {
		f.Close()
		return nil, fmt.Errorf("%w: checkpoint of %d bytes", ErrCorrupt, fi.Size())
	}
	return &limitedCloser{Reader: io.LimitReader(f, fi.Size()-8), c: f}, nil
}

type limitedCloser struct {
	io.Reader
	c io.Closer
}

func (lc *limitedCloser) Close() error { return lc.c.Close() }

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
