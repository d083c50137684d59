package shard

import (
	"testing"

	"probesim/internal/gen"
	"probesim/internal/graph"
)

// TestStoreHoldsOneCopy pins the store's single copy of the graph with
// allocation counts: building a store of PA(20k, 8) at -shards 16 (ten
// shards of 2048 nodes), and
// restoring one from its blocks, allocates a few objects per shard and
// none per node (a per-node copy of the lists would be tens of
// thousands), and a 4-op batch copies only the lists it moves.
func TestStoreHoldsOneCopy(t *testing.T) {
	g := gen.PreferentialAttachment(20000, 8, 1)
	var st *Store
	built := testing.AllocsPerRun(3, func() { st = NewStore(g, 16, 1) })
	shards := st.NumShards()
	cur := st.Current()
	blocks := make([]graph.CSRShard, shards)
	versions := make([]uint64, shards)
	for p := range blocks {
		blocks[p], versions[p] = cur.Shard(p), cur.ShardVersion(p)
	}
	restored := testing.AllocsPerRun(3, func() {
		if _, err := Restore(cur.NumNodes(), cur.NumEdges(), cur.Version(), cur.LastBatch(), cur.Shift(), blocks, versions, 1); err != nil {
			t.Fatal(err)
		}
	})
	const perShard = 8
	if built > float64(perShard*shards) || restored > float64(perShard*shards) {
		t.Fatalf("NewStore made %.0f allocations and Restore %.0f, want at most %d each (%d per shard)",
			built, restored, perShard*shards, perShard)
	}

	// Each run moves four lists in four shards and back, then publishes,
	// so every run copies its lists afresh from the published snapshot.
	stride := graph.NodeID(st.Partition().Stride())
	a, b, c, d := graph.NodeID(1), 3*stride+1, 5*stride+2, 9*stride+3
	ops := []graph.EdgeOp{{U: a, V: b}, {U: c, V: d}, {Remove: true, U: a, V: b}, {Remove: true, U: c, V: d}}
	batch := testing.AllocsPerRun(5, func() {
		if _, err := st.ApplyBatch(0, ops); err != nil {
			t.Fatal(err)
		}
		st.Publish()
	})
	const perOp = 16
	if batch > perOp*float64(len(ops)) {
		t.Fatalf("a %d-op batch and its publication made %.0f allocations, want at most %d", len(ops), batch, perOp*len(ops))
	}
	t.Logf("allocations: NewStore %.0f, Restore %.0f, %d-op batch with publication %.0f", built, restored, len(ops), batch)
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}
