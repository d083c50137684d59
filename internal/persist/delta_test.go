package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

// churn applies one identified batch touching a couple of shards and
// republishes.
func churn(t *testing.T, st *shard.Store, id uint64, ops []shard.EdgeOp) *shard.StoreSnapshot {
	t.Helper()
	if _, err := st.ApplyBatch(id, ops); err != nil {
		t.Fatal(err)
	}
	return st.Publish()
}

func TestDeltaSpillRoundTrip(t *testing.T) {
	g := testGraph(400, 9)
	st := shard.NewStore(g, 8, 0)
	base := st.Publish()
	var baseBuf bytes.Buffer
	if err := WriteSnapshot(&baseBuf, base); err != nil {
		t.Fatal(err)
	}
	bref := BaseOf(base)

	// Touch a strict subset of shards, then delta-spill.
	snap := churn(t, st, 7, []shard.EdgeOp{{U: 1, V: 2}, {U: 3, V: 1}})
	var deltaBuf bytes.Buffer
	if err := WriteSnapshotDelta(&deltaBuf, snap, bref); err != nil {
		t.Fatal(err)
	}
	if deltaBuf.Len() >= baseBuf.Len()/2 {
		t.Fatalf("delta spill of %d bytes vs full %d: not incremental", deltaBuf.Len(), baseBuf.Len())
	}

	got, err := ReadStoreDelta(bytes.NewReader(baseBuf.Bytes()), bytes.NewReader(deltaBuf.Bytes()), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gsnap := got.Current()
	if err := gsnap.Validate(); err != nil {
		t.Fatal(err)
	}
	if gsnap.Version() != snap.Version() || gsnap.LastBatch() != snap.LastBatch() {
		t.Fatalf("version/batch %d/%d, want %d/%d", gsnap.Version(), gsnap.LastBatch(), snap.Version(), snap.LastBatch())
	}
	sameView(t, snap, gsnap)

	// A delta against the WRONG base must be refused.
	snap2 := churn(t, st, 8, []shard.EdgeOp{{U: 9, V: 10}})
	var delta2 bytes.Buffer
	if err := WriteSnapshotDelta(&delta2, snap2, BaseOf(snap)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStoreDelta(bytes.NewReader(baseBuf.Bytes()), bytes.NewReader(delta2.Bytes()), 0, 0, 0); !errors.Is(err, ErrFormat) {
		t.Fatalf("mismatched base accepted: %v", err)
	}
	// And a delta cannot be read as a standalone spill.
	if _, err := ReadStore(bytes.NewReader(deltaBuf.Bytes()), 0); !errors.Is(err, ErrFormat) {
		t.Fatalf("standalone delta read: %v", err)
	}
}

// TestDeltaSpillCoversAddedShards pins the growth case: nodes added
// after the base extend the shard set, and the delta must carry the new
// shards wholesale.
func TestDeltaSpillCoversAddedShards(t *testing.T) {
	g := testGraph(64, 3)
	st := shard.NewStore(g, 8, 0) // stride 8
	base := st.Publish()
	var baseBuf bytes.Buffer
	if err := WriteSnapshot(&baseBuf, base); err != nil {
		t.Fatal(err)
	}
	bref := BaseOf(base)
	for i := 0; i < 10; i++ { // grows past shard 8's range
		st.AddNode()
	}
	snap := churn(t, st, 3, []shard.EdgeOp{{U: 70, V: 1}})
	if snap.NumShards() <= base.NumShards() {
		t.Fatalf("growth did not add shards: %d vs %d", snap.NumShards(), base.NumShards())
	}
	var deltaBuf bytes.Buffer
	if err := WriteSnapshotDelta(&deltaBuf, snap, bref); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStoreDelta(bytes.NewReader(baseBuf.Bytes()), bytes.NewReader(deltaBuf.Bytes()), 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameView(t, snap, got.Current())
}

func TestScopedSpillReadSkipsUnowned(t *testing.T) {
	const group = 3
	g := testGraph(500, 13)
	full := shard.NewStore(g, 16, 0)
	snap := full.Publish()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for index := 0; index < group; index++ {
		st, err := ReadStoreScoped(bytes.NewReader(buf.Bytes()), 0, index, group)
		if err != nil {
			t.Fatalf("index %d: %v", index, err)
		}
		ss := st.Current()
		if !ss.Scoped() {
			t.Fatalf("index %d: snapshot not scoped", index)
		}
		if ss.Version() != snap.Version() || ss.NumEdges() != snap.NumEdges() {
			t.Fatalf("index %d: counters diverged", index)
		}
		for p := 0; p < ss.NumShards(); p++ {
			owned := p%group == index
			if ss.ShardPresent(p) != owned {
				t.Fatalf("index %d shard %d: present=%v want %v", index, p, ss.ShardPresent(p), owned)
			}
			if ss.ShardVersion(p) != snap.ShardVersion(p) {
				t.Fatalf("index %d shard %d: version drift", index, p)
			}
			if owned && !reflect.DeepEqual(ss.Shard(p), snap.Shard(p)) {
				t.Fatalf("index %d shard %d: CSR differs", index, p)
			}
		}
	}
}

// TestOpenStoreScopedDeltaRecovery drives the full durable loop for a
// scoped worker: bootstrap, churn through the WAL with delta
// checkpoints, crash (drop the Log without final checkpoint), recover,
// and compare against a full store that saw the same history.
func TestOpenStoreScopedDeltaRecovery(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(300, 21)
	bootstrap := func() (*graph.Graph, error) { return g, nil }
	ref := shard.NewStore(g, 16, 0)

	st, lg, stats, err := OpenStoreScoped(dir, 16, 0, 1, 2, wal.Options{Sync: wal.SyncAlways}, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Bootstrapped {
		t.Fatal("expected bootstrap")
	}
	ck := &Checkpointer{st: st, lg: lg, stop: make(chan struct{}), done: make(chan struct{})}
	close(ck.done) // no background loop; we drive Checkpoint directly

	batches := [][]shard.EdgeOp{
		{{U: 1, V: 2}, {U: 2, V: 3}},
		{{U: 40, V: 41}},
		{{Remove: true, U: 1, V: 2}},
		{{U: 100, V: 200}, {U: 201, V: 100}},
	}
	var id uint64
	for i, ops := range batches {
		id++
		if _, err := lg.Append(id, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ApplyBatch(id, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyBatch(id, ops); err != nil {
			t.Fatal(err)
		}
		st.Publish()
		ref.Publish()
		// Checkpoint after the first two batches only: recovery must
		// replay the tail above the newest (delta) checkpoint.
		if i < 2 {
			if err := ck.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := ck.Stats()
	if cs.Fulls != 1 || cs.Deltas != 1 {
		t.Fatalf("checkpointer wrote %d fulls / %d deltas, want 1/1", cs.Fulls, cs.Deltas)
	}
	if cs.ShardsSkipped == 0 {
		t.Fatal("delta spill skipped no shards")
	}
	lg.Close() // crash: no final checkpoint

	// The directory must now hold a full base AND a delta.
	names, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	var haveFull, haveDelta bool
	for _, n := range names {
		haveFull = haveFull || strings.HasSuffix(n, ".ck")
		haveDelta = haveDelta || strings.HasSuffix(n, ".dck")
	}
	if !haveFull || !haveDelta {
		t.Fatalf("checkpoint files %v: want one .ck and one .dck", names)
	}

	re, lg2, rstats, err := OpenStoreScoped(dir, 16, 0, 1, 2, wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rstats.Bootstrapped {
		t.Fatal("second open bootstrapped")
	}
	if rstats.Replayed != 2 {
		t.Fatalf("replayed %d batches, want 2", rstats.Replayed)
	}
	if re.LastBatch() != id || re.Version() != ref.Version() || re.NumEdges() != ref.NumEdges() {
		t.Fatalf("recovered watermark/version/edges %d/%d/%d, want %d/%d/%d",
			re.LastBatch(), re.Version(), re.NumEdges(), id, ref.Version(), ref.NumEdges())
	}
	rs, fs := re.Current(), ref.Current()
	for p := 0; p < rs.NumShards(); p++ {
		if rs.ShardVersion(p) != fs.ShardVersion(p) {
			t.Fatalf("shard %d version %d, full ref %d", p, rs.ShardVersion(p), fs.ShardVersion(p))
		}
		if owned := p%2 == 1; rs.ShardPresent(p) != owned {
			t.Fatalf("shard %d present=%v, want %v", p, rs.ShardPresent(p), owned)
		}
		if rs.ShardPresent(p) && !reflect.DeepEqual(rs.Shard(p), fs.Shard(p)) {
			t.Fatalf("shard %d CSR diverged from the full reference", p)
		}
	}
}

// TestDeltaRecoveryFallsBackWhenDeltaCorrupt pins the safety property
// that justifies deltas never truncating segments: clobber the delta
// file and recovery must come back via base + full replay, identically.
func TestDeltaRecoveryFallsBackWhenDeltaCorrupt(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(200, 5)
	st, lg, _, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpointer{st: st, lg: lg, stop: make(chan struct{}), done: make(chan struct{})}
	close(ck.done)
	var id uint64
	apply := func(ops []shard.EdgeOp) {
		id++
		if _, err := lg.Append(id, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ApplyBatch(id, ops); err != nil {
			t.Fatal(err)
		}
		st.Publish()
	}
	apply([]shard.EdgeOp{{U: 3, V: 4}})
	if err := ck.Checkpoint(); err != nil { // full base (no base yet)
		t.Fatal(err)
	}
	apply([]shard.EdgeOp{{U: 5, V: 6}})
	if err := ck.Checkpoint(); err != nil { // delta
		t.Fatal(err)
	}
	apply([]shard.EdgeOp{{U: 7, V: 8}})
	want := st.Current()
	lg.Close()

	deltas, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.dck"))
	if len(deltas) != 1 {
		t.Fatalf("delta files: %v", deltas)
	}
	if err := os.Truncate(deltas[0], 5); err != nil {
		t.Fatal(err)
	}

	re, lg2, rstats, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	// Both logged batches replay on top of the base checkpoint.
	if rstats.Replayed != 2 {
		t.Fatalf("replayed %d, want 2", rstats.Replayed)
	}
	sameView(t, want, re.Current())
	if re.LastBatch() != id {
		t.Fatalf("watermark %d, want %d", re.LastBatch(), id)
	}
}

var _ = io.Discard // keep io imported if assertions above change
