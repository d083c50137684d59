package persist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

func TestOpenStoreBootstrapAndReopen(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(200, 11)
	st, lg, stats, err := OpenStore(dir, 4, 0, wal.Options{Sync: wal.SyncAlways},
		func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Bootstrapped {
		t.Fatal("fresh dir did not bootstrap")
	}
	// The initial checkpoint makes the dir self-contained: reopening must
	// never call bootstrap again.
	id, err := lg.Append(0, []wal.Op{{U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(id, []shard.EdgeOp{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	st.Publish()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	st2, lg2, stats2, err := OpenStore(dir, 4, 0, wal.Options{},
		func() (*graph.Graph, error) {
			t.Fatal("bootstrap called on a recoverable directory")
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if stats2.Bootstrapped || stats2.Replayed != 1 {
		t.Fatalf("reopen stats %+v, want 1 replayed batch", stats2)
	}
	if st2.NumEdges() != st.NumEdges() || st2.LastBatch() != id {
		t.Fatalf("recovered edges=%d batch=%d, want %d/%d", st2.NumEdges(), st2.LastBatch(), st.NumEdges(), id)
	}
	sameView(t, st.Current(), st2.Current())
}

func TestOpenStoreEmptyDirNoBootstrap(t *testing.T) {
	if _, _, _, err := OpenStore(t.TempDir(), 4, 0, wal.Options{}, nil); err == nil {
		t.Fatal("empty dir with no bootstrap accepted")
	}
}

// TestCrashRecoveryProperty is the PR's acceptance property: ingest a
// randomized batch stream through the durable write plane (append to the
// log, then apply, exactly like the server), hard-stop at a random point
// — the log is simply abandoned un-closed, and the torn write of the
// in-flight, UNacknowledged batch is simulated with trailing garbage —
// then recover from the directory. Every acknowledged batch must be
// present and single-source + top-k results must be bit-identical to a
// store that ingested the same acknowledged stream uninterrupted.
func TestCrashRecoveryProperty(t *testing.T) {
	const n = 300
	opt := core.Options{EpsA: 0.25, Delta: 0.05, Seed: 99, Workers: 2}
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			g := testGraph(n, int64(trial))
			ref := shard.NewStore(g.Clone(), 4, 0) // uninterrupted reference

			st, lg, _, err := OpenStore(dir, 4, 0,
				wal.Options{Sync: wal.SyncAlways, SegmentBytes: 1 << 12},
				func() (*graph.Graph, error) { return g, nil })
			if err != nil {
				t.Fatal(err)
			}
			ck := StartCheckpointer(st, lg, 1<<62, time.Hour) // manual triggers only

			batches := 20 + r.Intn(30)
			crashAt := r.Intn(batches)
			var acked [][]shard.EdgeOp
			for b := 0; b < batches; b++ {
				if b == crashAt {
					break
				}
				ops := make([]shard.EdgeOp, 1+r.Intn(6))
				for i := range ops {
					u := graph.NodeID(r.Intn(n))
					v := graph.NodeID(r.Intn(n))
					for u == v {
						v = graph.NodeID(r.Intn(n))
					}
					// Bias toward adds; removes may legitimately fail and be
					// rejected, which both sides must agree on.
					ops[i] = shard.EdgeOp{Remove: r.Intn(5) == 0, U: u, V: v}
				}
				// The server's discipline: append (durable), then apply, then
				// acknowledge. A batch the store rejects is still "decided":
				// the reference must decide it identically.
				id, err := lg.Append(0, ops)
				if err != nil {
					t.Fatal(err)
				}
				_, applyErr := st.ApplyBatch(id, ops)
				acked = append(acked, ops)
				if _, refErr := ref.ApplyBatch(0, ops); (refErr == nil) != (applyErr == nil) {
					t.Fatalf("batch %d: durable and reference stores disagree on validity: %v vs %v", b, applyErr, refErr)
				}
				if r.Intn(4) == 0 {
					st.Publish()
				}
				if r.Intn(8) == 0 {
					if err := ck.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// CRASH: abandon the store and log without closing. Simulate the
			// torn in-flight write with garbage on the last segment.
			segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if len(segs) > 0 && r.Intn(2) == 0 {
				f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				garbage := make([]byte, 1+r.Intn(40))
				r.Read(garbage)
				f.Write(garbage)
				f.Close()
			}

			st2, lg2, stats, err := OpenStore(dir, 4, 0, wal.Options{},
				func() (*graph.Graph, error) {
					return nil, fmt.Errorf("bootstrap must not run on recovery")
				})
			if err != nil {
				t.Fatal(err)
			}
			defer lg2.Close()
			if got, want := st2.LastBatch(), uint64(len(acked)); got != want {
				t.Fatalf("recovered watermark %d, want %d acked batches (stats %+v)", got, want, stats)
			}
			ref.Publish()
			refSnap := ref.Current()
			gotSnap := st2.Current()
			if err := gotSnap.Validate(); err != nil {
				t.Fatal(err)
			}
			sameView(t, refSnap, gotSnap)

			// Bit-identical queries, not just equal graphs.
			for _, u := range []graph.NodeID{0, 7, graph.NodeID(r.Intn(n))} {
				want, err := core.SingleSource(context.Background(), refSnap, u, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.SingleSource(context.Background(), gotSnap, u, opt)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if want[v] != got[v] {
						t.Fatalf("source %d: s(%d) = %v recovered vs %v reference", u, v, got[v], want[v])
					}
				}
				wantK, err := core.TopK(context.Background(), refSnap, u, 10, opt)
				if err != nil {
					t.Fatal(err)
				}
				gotK, err := core.TopK(context.Background(), gotSnap, u, 10, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(wantK) != len(gotK) {
					t.Fatalf("source %d: top-k lengths %d vs %d", u, len(gotK), len(wantK))
				}
				for i := range wantK {
					if wantK[i] != gotK[i] {
						t.Fatalf("source %d rank %d: %+v vs %+v", u, i, gotK[i], wantK[i])
					}
				}
			}
		})
	}
}

// TestShardLocalSpillRefused: a checkpoint with an empty block, as a
// worker that held only its owned shards once wrote for every shard it
// did not own, is refused by both ReadStore and OpenStore, and the error
// names the shard. Such a data dir is re-seeded from the graph or from a
// full peer's checkpoint.
func TestShardLocalSpillRefused(t *testing.T) {
	full := shard.NewStore(testGraph(200, 19), 4, 0).Current()
	csr := make([]graph.CSRShard, full.NumShards())
	versions := make([]uint64, full.NumShards())
	for p := range csr {
		if p != 1 {
			csr[p] = full.Shard(p)
		}
		versions[p] = full.ShardVersion(p)
	}
	spill := shard.Assemble(full.NumNodes(), full.NumEdges(), full.Version(), full.LastBatch(), full.Shift(), csr, versions)
	const want = "shard 1: offset arrays of length 0/0"

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, spill); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadStore(bytes.NewReader(buf.Bytes()), 0); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadStore: %v, want an error containing %q", err, want)
	}

	dir := t.TempDir()
	lg, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(spill.LastBatch(), func(w io.Writer) error { return WriteSnapshot(w, spill) }); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = OpenStore(dir, 4, 0, wal.Options{}, func() (*graph.Graph, error) {
		t.Fatal("bootstrap called on a directory that holds a checkpoint")
		return nil, nil
	})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenStore: %v, want an error containing %q", err, want)
	}
}

// TestLegacyDeltaCheckpointIgnored: a directory that holds a delta
// checkpoint (.dck, the incremental spill older builds wrote beside
// their full ones) recovers through the full checkpoint and the log
// above it, and the .dck is deleted unread. Delta checkpoints never
// truncated segments, so the log holds every batch one covered; the
// .dck here holds the intact bootstrap checkpoint, so a recovery that
// loaded it would lose every batch.
func TestLegacyDeltaCheckpointIgnored(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(200, 17)
	st, lg, _, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	bootstrapCkpt, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.ck", 0)))
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpointer{st: st, lg: lg} // no background loop: Checkpoint runs on demand
	var id uint64
	for i, ops := range [][]shard.EdgeOp{
		{{U: 3, V: 4}, {U: 150, V: 3}},
		{{U: 5, V: 6}},
		{{Remove: true, U: 3, V: 4}},
		{{U: 7, V: 8}, {U: 190, V: 2}},
	} {
		if id, err = lg.Append(0, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ApplyBatch(id, ops); err != nil {
			t.Fatal(err)
		}
		st.Publish()
		if i == 1 {
			if err := ck.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := st.Current()
	lg.Close() // crash: no final checkpoint

	dck := filepath.Join(dir, fmt.Sprintf("checkpoint-%016x.dck", id-1))
	if err := os.WriteFile(dck, bootstrapCkpt, 0o644); err != nil {
		t.Fatal(err)
	}

	re, lg2, rstats, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rstats.CheckpointThrough != 2 || rstats.Replayed != 2 {
		t.Fatalf("recovered through checkpoint %d with %d replayed, want checkpoint 2 and 2 replayed", rstats.CheckpointThrough, rstats.Replayed)
	}
	sameView(t, want, re.Current())
	if re.LastBatch() != id {
		t.Fatalf("watermark %d, want %d", re.LastBatch(), id)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.dck*")); len(left) != 0 {
		t.Fatalf("legacy delta checkpoint not deleted: %v", left)
	}
}

// TestRecoveryFallsBackToOlderCheckpoint: when the newest checkpoint
// fails its check, recovery sets it aside, loads the older one and
// replays the longer log tail above it into the same graph. The older
// file is what a crash between the newer file's rename and the older
// one's removal leaves; the log has one segment, so no checkpoint
// truncated it.
func TestRecoveryFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(200, 5)
	st, lg, _, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpointer{st: st, lg: lg} // no background loop: Checkpoint runs on demand
	var id uint64
	apply := func(ops []shard.EdgeOp) {
		t.Helper()
		if id, err = lg.Append(0, ops); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ApplyBatch(id, ops); err != nil {
			t.Fatal(err)
		}
		st.Publish()
	}
	checkpointFile := func() string {
		t.Helper()
		if err := ck.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ck"))
		if len(cks) != 1 {
			t.Fatalf("checkpoint files %v, want one", cks)
		}
		return cks[0]
	}
	apply([]shard.EdgeOp{{U: 3, V: 4}})
	older := checkpointFile()
	saved, err := os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	apply([]shard.EdgeOp{{U: 5, V: 6}, {U: 6, V: 3}})
	apply([]shard.EdgeOp{{Remove: true, U: 3, V: 4}})
	newer := checkpointFile()
	apply([]shard.EdgeOp{{U: 7, V: 8}})
	want := st.Current()
	lg.Close()
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) != 1 {
		t.Fatalf("segments %v, want one", segs)
	}

	if err := os.WriteFile(older, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(newer)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newer, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, lg2, rstats, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if _, err := os.Stat(newer + ".corrupt"); err != nil {
		t.Fatalf("corrupt checkpoint not set aside: %v", err)
	}
	if rstats.CheckpointThrough != 1 || rstats.Replayed != 3 {
		t.Fatalf("recovered through checkpoint %d with %d replayed, want checkpoint 1 and 3 replayed", rstats.CheckpointThrough, rstats.Replayed)
	}
	sameView(t, want, re.Current())
	if re.LastBatch() != id || re.LastBatch() != want.LastBatch() {
		t.Fatalf("watermark %d, want %d", re.LastBatch(), id)
	}
}

// TestRecoveryCountsCoveredReplayedAndSkipped: recovery splits the log's
// batches into those the checkpoint covers, those it replays, and those
// that fail on replay as they failed when first submitted, and the
// three add up to the batches in the log.
func TestRecoveryCountsCoveredReplayedAndSkipped(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(200, 23)
	st, lg, _, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, func() (*graph.Graph, error) { return g, nil })
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpointer{st: st, lg: lg} // no background loop: Checkpoint runs on demand
	apply := func(ops []shard.EdgeOp) error {
		t.Helper()
		id, err := lg.Append(0, ops)
		if err != nil {
			t.Fatal(err)
		}
		_, err = st.ApplyBatch(id, ops)
		st.Publish()
		return err
	}
	for _, ops := range [][]shard.EdgeOp{{{U: 3, V: 4}}, {{U: 5, V: 6}}} {
		if err := apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := apply([]shard.EdgeOp{{U: 7, V: 8}}); err != nil {
		t.Fatal(err)
	}
	missing := shard.EdgeOp{Remove: true, U: 9, V: 10}
	for slices.Contains(st.Current().OutNeighbors(missing.U), missing.V) {
		missing.V++
	}
	if err := apply([]shard.EdgeOp{missing}); err == nil {
		t.Fatal("removing a missing edge applied")
	}
	want := st.Current()
	lg.Close()

	re, lg2, rstats, err := OpenStore(dir, 8, 0, wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lg2.Close()
	if rstats.CheckpointThrough != 2 || rstats.Covered != 2 || rstats.Replayed != 1 || rstats.ReplaySkipped != 1 {
		t.Fatalf("recovery stats %+v, want checkpoint 2, 2 covered, 1 replayed and 1 skipped", rstats)
	}
	sameView(t, want, re.Current())
	if re.LastBatch() != 4 {
		t.Fatalf("watermark %d, want 4", re.LastBatch())
	}
}

// recordHandler is a slog.Handler that hands each record to a channel,
// dropping records the test has not read yet.
type recordHandler struct{ records chan slog.Record }

func (h recordHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h recordHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h recordHandler) WithGroup(string) slog.Handler            { return h }
func (h recordHandler) Handle(_ context.Context, r slog.Record) error {
	select {
	case h.records <- r:
	default:
	}
	return nil
}

// TestCheckpointerLogsBackgroundFailures closes the log under a running
// checkpointer: its next checkpoint fails, and the failure must reach
// the process log rather than vanish while the log stops truncating.
func TestCheckpointerLogsBackgroundFailures(t *testing.T) {
	h := recordHandler{records: make(chan slog.Record, 16)}
	prev := slog.Default()
	slog.SetDefault(slog.New(h))
	t.Cleanup(func() { slog.SetDefault(prev) })

	st, lg, _, err := OpenStore(t.TempDir(), 4, 0, wal.Options{Sync: wal.SyncAlways},
		func() (*graph.Graph, error) { return testGraph(200, 11), nil })
	if err != nil {
		t.Fatal(err)
	}
	ops := []shard.EdgeOp{{U: 1, V: 2}}
	id, err := lg.Append(0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyBatch(id, ops); err != nil {
		t.Fatal(err)
	}
	// Unpublished, the batch gives the loop nothing to spill yet.
	ck := StartCheckpointer(st, lg, 1, time.Millisecond)
	defer ck.Stop()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	st.Publish()
	select {
	case r := <-h.records:
		var logged error
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "err" {
				logged, _ = a.Value.Any().(error)
			}
			return true
		})
		if r.Level != slog.LevelError || logged == nil || !strings.Contains(logged.Error(), "log closed") {
			t.Fatalf("logged %v %q with err %v, want an error-level record of the closed-log failure", r.Level, r.Message, logged)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a failed background checkpoint was never logged")
	}
}
