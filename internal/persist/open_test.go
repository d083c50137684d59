package persist

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
