package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testOps(r *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Remove: r.Intn(4) == 0, U: int32(r.Intn(1000)), V: int32(r.Intn(1000))}
	}
	return ops
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointPath != "" || len(rec.Batches) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	r := rand.New(rand.NewSource(1))
	var want []Batch
	for i := 0; i < 50; i++ {
		ops := testOps(r, 1+r.Intn(8))
		id, err := l.Append(0, ops)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(i+1) {
			t.Fatalf("batch %d got id %d", i, id)
		}
		want = append(want, Batch{ID: id, Ops: ops})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec2.Batches) != len(want) {
		t.Fatalf("recovered %d batches, want %d", len(rec2.Batches), len(want))
	}
	for i, b := range rec2.Batches {
		if b.ID != want[i].ID || !opsEqual(b.Ops, want[i].Ops) {
			t.Fatalf("batch %d: got %+v want %+v", i, b, want[i])
		}
	}
	if got := l2.NextBatch(); got != 51 {
		t.Fatalf("next batch %d, want 51", got)
	}
	// Replay filters by watermark.
	var ids []uint64
	if err := rec2.Replay(47, func(id uint64, ops []Op) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 48 || ids[2] != 50 {
		t.Fatalf("replay above 47 visited %v", ids)
	}
}

func TestExplicitIDsAndMonotonicity(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if id, err := l.Append(7, []Op{{U: 1, V: 2}}); err != nil || id != 7 {
		t.Fatalf("explicit id: %d, %v", id, err)
	}
	// Gaps forward are legal (router-assigned ids skip rejected batches).
	if id, err := l.Append(10, []Op{{U: 2, V: 3}}); err != nil || id != 10 {
		t.Fatalf("gapped id: %d, %v", id, err)
	}
	if _, err := l.Append(9, []Op{{U: 3, V: 4}}); err == nil {
		t.Fatal("non-monotonic id accepted")
	}
	if id, err := l.Append(0, nil); err != nil || id != 11 {
		t.Fatalf("self-assigned after gap: %d, %v", id, err)
	}
}

func TestRotationAndRecoveryAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: nearly every append rotates.
	l, _, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(0, []Op{{U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations at a 64-byte threshold: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, found %v", segs)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 20 {
		t.Fatalf("recovered %d batches across segments, want 20", len(rec.Batches))
	}
}

// TestTornTailTruncated: a partial trailing record (the crash interrupted
// the write, so it was never acknowledged) is dropped, everything before
// it survives.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 9, 12} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := l.Append(0, []Op{{U: int32(i), V: int32(i + 1)}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if len(segs) != 1 {
				t.Fatalf("want one segment, got %v", segs)
			}
			// Simulate the torn write: append a prefix of a valid record.
			full := appendRecord(nil, 6, []Op{{U: 100, V: 200}})
			f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(full[:cut]); err != nil {
				t.Fatal(err)
			}
			f.Close()

			_, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery rejected torn tail: %v", err)
			}
			if len(rec.Batches) != 5 {
				t.Fatalf("recovered %d batches, want 5", len(rec.Batches))
			}
			if rec.TornBytes != int64(cut) {
				t.Fatalf("torn bytes %d, want %d", rec.TornBytes, cut)
			}
			// The tail is gone from disk too: a second recovery is clean.
			_, rec2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rec2.TornBytes != 0 || len(rec2.Batches) != 5 {
				t.Fatalf("second recovery: torn=%d batches=%d", rec2.TornBytes, len(rec2.Batches))
			}
		})
	}
}

// TestAppendAfterRecoveringHeaderOnlySegment: a crash that leaves a
// record-less trailing segment (rotation happened, no record survived)
// must not brick the log — the empty file is removed at recovery so the
// O_EXCL create of the same name succeeds when l.next reaches it again.
func TestAppendAfterRecoveringHeaderOnlySegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// SegmentBytes=1: every append rotates. Two appends leave segments
	// for ids 1 and 2; simulate the crash-after-rotation by hand-creating
	// the header-only segment for id 3.
	l.Append(0, []Op{{U: 1, V: 2}})
	l.Append(0, []Op{{U: 2, V: 3}})
	l.Close()
	f, err := os.OpenFile(segPath(dir, 3), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segFormat)
	binary.LittleEndian.PutUint64(hdr[8:16], 3)
	f.Write(hdr[:])
	f.Close()

	l2, rec, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Batches) != 2 {
		t.Fatalf("recovered %d batches, want 2", len(rec.Batches))
	}
	if _, err := os.Stat(segPath(dir, 3)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty segment survived recovery: %v", err)
	}
	// The regression: this Append used to fail with O_EXCL "file exists".
	if id, err := l2.Append(0, []Op{{U: 3, V: 4}}); err != nil || id != 3 {
		t.Fatalf("append after empty-segment recovery: id=%d err=%v", id, err)
	}
}

// TestFailedAppendAnnulled: an append whose write/fsync fails must leave
// NO trace — a batch the caller was told failed must never come back on
// replay, and the id must not be consumed.
func TestFailedAppendAnnulled(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, []Op{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	// Force the flush to fail: close the underlying file behind the log's
	// back. The append must report failure AND annul itself.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	if _, err := l.Append(0, []Op{{U: 9, V: 9}}); err == nil {
		t.Fatal("append over a dead fd succeeded")
	}
	// The log fail-stops when annulment is impossible (closed fd can't be
	// truncated); every later append refuses rather than risking a
	// failed-then-replayed record.
	if _, err := l.Append(0, []Op{{U: 3, V: 4}}); err == nil {
		t.Fatal("append after failed annulment succeeded")
	}
	// On disk: only the acknowledged batch.
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].ID != 1 {
		t.Fatalf("recovered %+v, want only batch 1", rec.Batches)
	}
}

// TestInteriorCorruptionFatal: a flipped bit in the middle of the log is
// NOT an interrupted write and must fail recovery loudly.
func TestInteriorCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(0, []Op{{U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %v", segs)
	}
	// Flip a payload byte in the FIRST segment (not the last).
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("interior corruption recovered silently")
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 12; i++ {
		if _, err := l.Append(0, []Op{{U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(before) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(before))
	}
	payload := []byte("state through 8")
	if err := l.Checkpoint(8, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(after) >= len(before) {
		t.Fatalf("checkpoint truncated nothing: %d -> %d segments", len(before), len(after))
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ck"))
	if len(cks) != 1 {
		t.Fatalf("want one checkpoint, got %v", cks)
	}
	if err := VerifyFileCRC(cks[0]); err != nil {
		t.Fatal(err)
	}
	rc, err := OpenCheckpoint(cks[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("checkpoint content %q, %v", got, err)
	}

	// Recovery from checkpoint + surviving tail: batches 9..12 replayable.
	l.Close()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointThrough != 8 {
		t.Fatalf("checkpoint through %d, want 8", rec.CheckpointThrough)
	}
	var ids []uint64
	rec.Replay(rec.CheckpointThrough, func(id uint64, ops []Op) error {
		ids = append(ids, id)
		return nil
	})
	if len(ids) != 4 || ids[0] != 9 || ids[3] != 12 {
		t.Fatalf("tail replay visited %v, want [9 10 11 12]", ids)
	}
}

func TestCheckpointSupersedesOlder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 6; i++ {
		if _, err := l.Append(0, []Op{{U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := l.Checkpoint(3, write("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(5, write("b")); err != nil {
		t.Fatal(err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ck"))
	if len(cks) != 1 || !strings.Contains(cks[0], fmt.Sprintf("%016x", 5)) {
		t.Fatalf("want only checkpoint 5, got %v", cks)
	}
	if l.LastCheckpoint() != 5 {
		t.Fatalf("last checkpoint %d", l.LastCheckpoint())
	}
	if err := l.Checkpoint(99, write("x")); err == nil {
		t.Fatal("checkpoint beyond last batch accepted")
	}
}

// TestCheckpointSupersedesBootstrapCheckpoint pins that the checkpoint
// a bootstrapping store writes, which covers batch 0, goes when the next
// checkpoint lands, like any other superseded one.
func TestCheckpointSupersedesBootstrapCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := l.Checkpoint(0, write("bootstrap")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(0, []Op{{U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(3, write("b")); err != nil {
		t.Fatal(err)
	}
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ck"))
	if len(cks) != 1 || !strings.Contains(cks[0], fmt.Sprintf("%016x", 3)) {
		t.Fatalf("want only checkpoint 3, got %v", cks)
	}
}

// TestLegacyDeltaCheckpointDeletedUnread: a directory that holds a delta
// checkpoint (.dck, the incremental format older builds wrote beside
// their full checkpoints) recovers through the full checkpoint and every
// logged batch above it, and the .dck is deleted without being read —
// even an unreadable one is not set aside as evidence.
func TestLegacyDeltaCheckpointDeletedUnread(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	var want []Batch
	for i := 0; i < 6; i++ {
		ops := testOps(r, 3)
		id, err := l.Append(0, ops)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Batch{ID: id, Ops: ops})
	}
	if err := l.Checkpoint(2, func(w io.Writer) error { _, err := io.WriteString(w, "full@2"); return err }); err != nil {
		t.Fatal(err)
	}
	l.Close()
	dck := filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.dck", 4))
	if err := os.WriteFile(dck, []byte("delta@4, no trailer"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.CheckpointPath != ckptPath(dir, 2) || rec.CheckpointThrough != 2 || l2.LastCheckpoint() != 2 {
		t.Fatalf("recovered checkpoint %q through %d (log says %d), want checkpoint 2",
			rec.CheckpointPath, rec.CheckpointThrough, l2.LastCheckpoint())
	}
	var got []Batch
	rec.Replay(rec.CheckpointThrough, func(id uint64, ops []Op) error {
		got = append(got, Batch{ID: id, Ops: ops})
		return nil
	})
	if len(got) != len(want)-2 {
		t.Fatalf("replayed %d batches above the checkpoint, want %d", len(got), len(want)-2)
	}
	for i, b := range got {
		if w := want[i+2]; b.ID != w.ID || !opsEqual(b.Ops, w.Ops) {
			t.Fatalf("replayed batch %d = %+v, want %+v", i, b, w)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.dck*")); len(left) != 0 {
		t.Fatalf("legacy delta checkpoint not deleted: %v", left)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(0, []Op{{U: int32(i), V: int32(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := l.Checkpoint(2, write("old")); err != nil {
		t.Fatal(err)
	}
	// Hand-write a newer checkpoint with a bad CRC.
	bad := ckptPath(dir, 4)
	var buf bytes.Buffer
	buf.WriteString("newer but broken")
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[0:4], ckptTrailerMagic)
	binary.LittleEndian.PutUint32(trailer[4:8], crc32.Checksum([]byte("wrong"), crcTable))
	buf.Write(trailer[:])
	if err := os.WriteFile(bad, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.CheckpointThrough != 2 {
		t.Fatalf("fell back to checkpoint %d, want 2", rec.CheckpointThrough)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint not set aside: %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, s := range []string{"always", "interval", "off", ""} {
		if _, err := ParseSyncPolicy(s); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
	}
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, []Op{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	// The background loop must sync the append without an explicit call.
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval sync never ran")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and the loop is gone.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0, nil); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestErrCorruptClassification(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(0, []Op{{U: 1, V: 2}})
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	data, _ := os.ReadFile(segs[0])
	// Bad magic is corruption, not a torn tail.
	data[0] ^= 0xff
	os.WriteFile(segs[0], data, 0o644)
	_, _, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}
