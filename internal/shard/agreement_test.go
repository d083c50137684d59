package shard_test

// The sharded half of the PR 1 equivalence property: for fixed seeds,
// ProbeSim queries on a sharded store's published snapshot must be
// BIT-identical to queries on the monolithic graph and its CSR snapshot,
// for every shard count and every execution mode, including under
// randomized edge churn. Walk sampling and randomized probes consume
// randomness per neighbor index, so this property holds iff the sharded
// composite exposes every neighbor list in exactly the monolithic order —
// which is also why it is a sharp detector of any re-encoding bug.

import (
	"context"
	"testing"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

var shardCounts = []int{1, 2, 7, 64}

func assertSameVector(t *testing.T, ctx string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("%s: diverges at node %d: %v != %v", ctx, v, got[v], want[v])
		}
	}
}

// TestShardedSingleSourceBitIdentical runs every mode on a power-law
// graph across shard counts {1, 2, 7, 64}: monolithic graph, monolithic
// snapshot, sharded snapshot and the pooled executor over the store must
// all return the same bits.
func TestShardedSingleSourceBitIdentical(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 11)
	snap := g.Snapshot()
	for _, mode := range []core.Mode{core.ModeAuto, core.ModeBasic, core.ModePruned, core.ModeBatch, core.ModeRandomized, core.ModeHybrid} {
		opt := core.Options{Mode: mode, EpsA: 0.2, Seed: 5, Workers: 4, NumWalks: 300}
		for _, p := range shardCounts {
			st := shard.NewStore(g, p, 2)
			ex := core.NewExecutorOn(st, opt)
			for u := graph.NodeID(0); u < 6; u++ {
				want, err := core.SingleSource(context.Background(), g, u, opt)
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				fromSnap, err := core.SingleSource(context.Background(), snap, u, opt)
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				fromSharded, err := core.SingleSource(context.Background(), st.Current(), u, opt)
				if err != nil {
					t.Fatalf("mode %v p=%d: %v", mode, p, err)
				}
				pooled, err := ex.SingleSource(context.Background(), u)
				if err != nil {
					t.Fatalf("mode %v p=%d: %v", mode, p, err)
				}
				assertSameVector(t, "monolithic snapshot", want, fromSnap)
				assertSameVector(t, "sharded snapshot", want, fromSharded)
				assertSameVector(t, "sharded executor (pooled)", want, pooled)
			}
		}
	}
}

// TestShardedAgreementUnderChurn mirrors a randomized stream of edge
// inserts and removals into a monolithic graph and one store per shard
// count, republishing after every batch, and demands bit-identical
// queries at every step. Removal order matters (swap-with-tail), so this
// pins the mutation semantics, not just the encoder.
func TestShardedAgreementUnderChurn(t *testing.T) {
	const n = 200
	rng := xrand.New(47)
	g := gen.ErdosRenyi(n, 800, 3)
	opt := core.Options{EpsA: 0.25, Seed: 9, Workers: 2, NumWalks: 200}

	stores := make([]*shard.Store, len(shardCounts))
	for i, p := range shardCounts {
		stores[i] = shard.NewStore(g, p, 2)
	}
	for round := 0; round < 8; round++ {
		// One churn batch, mirrored everywhere.
		var ops []graph.EdgeOp
		for i := 0; i < 12; i++ {
			if rng.Float64() < 0.5 || g.NumEdges() == 0 {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u == v {
					continue
				}
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, graph.EdgeOp{U: u, V: v})
			} else {
				u := graph.NodeID(rng.Intn(n))
				for g.OutDegree(u) == 0 {
					u = (u + 1) % n
				}
				v := g.OutNeighbors(u)[rng.Intn(g.OutDegree(u))]
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, graph.EdgeOp{U: u, V: v, Remove: true})
			}
		}
		for _, st := range stores {
			if _, err := st.ApplyBatch(0, ops); err != nil {
				t.Fatal(err)
			}
		}
		u := graph.NodeID(round * 29 % n)
		want, err := core.SingleSource(context.Background(), g, u, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range stores {
			snap := st.Publish()
			if snap.Version() != st.Version() {
				t.Fatalf("p=%d: published version %d != store version %d", shardCounts[i], snap.Version(), st.Version())
			}
			got, err := core.SingleSource(context.Background(), snap, u, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVector(t, "churned sharded snapshot", want, got)
		}
	}
}

// TestShardedComponentsAndStatsAgree checks the analysis paths the server
// moved onto snapshots: components and degree stats must agree between
// the monolithic graph and the sharded snapshot.
func TestShardedComponentsAndStatsAgree(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 9)
	for _, p := range shardCounts {
		snap := shard.NewStore(g, p, 0).Current()
		wantSCC, wantSCCCount := graph.StronglyConnected(g)
		gotSCC, gotSCCCount := graph.StronglyConnected(snap)
		if wantSCCCount != gotSCCCount {
			t.Fatalf("p=%d: SCC count %d != %d", p, gotSCCCount, wantSCCCount)
		}
		for v := range wantSCC {
			if wantSCC[v] != gotSCC[v] {
				t.Fatalf("p=%d: SCC id of node %d: %d != %d", p, v, gotSCC[v], wantSCC[v])
			}
		}
		wantWCC, wantWCCCount := graph.WeaklyConnected(g)
		gotWCC, gotWCCCount := graph.WeaklyConnected(snap)
		if wantWCCCount != gotWCCCount {
			t.Fatalf("p=%d: WCC count %d != %d", p, gotWCCCount, wantWCCCount)
		}
		for v := range wantWCC {
			if wantWCC[v] != gotWCC[v] {
				t.Fatalf("p=%d: WCC id of node %d: %d != %d", p, v, gotWCC[v], wantWCC[v])
			}
		}
	}
}
