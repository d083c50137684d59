package shard

import (
	"slices"
	"testing"
	"unsafe"

	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/xrand"
)

// randomGraph builds a random directed graph with n nodes and up to m
// edges (self-loops skipped).
func randomGraph(t *testing.T, n, m int, rng *xrand.RNG) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// assertViewsMatch checks that two views expose identical adjacency:
// same counts, same degrees, same neighbor lists in the same order (the
// order is what the bit-identical query guarantee rides on).
func assertViewsMatch(t *testing.T, want, got graph.View) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("views disagree on size: %d/%d vs %d/%d",
			want.NumNodes(), want.NumEdges(), got.NumNodes(), got.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < want.NumNodes(); v++ {
		if want.InDegree(v) != got.InDegree(v) || want.OutDegree(v) != got.OutDegree(v) {
			t.Fatalf("node %d: degrees (%d,%d) vs (%d,%d)", v,
				want.InDegree(v), want.OutDegree(v), got.InDegree(v), got.OutDegree(v))
		}
		for i, w := range want.InNeighbors(v) {
			if got.InNeighbors(v)[i] != w {
				t.Fatalf("node %d in[%d]: %d vs %d", v, i, got.InNeighbors(v)[i], w)
			}
		}
		for i, w := range want.OutNeighbors(v) {
			if got.OutNeighbors(v)[i] != w {
				t.Fatalf("node %d out[%d]: %d vs %d", v, i, got.OutNeighbors(v)[i], w)
			}
		}
	}
}

func TestPartitionCoversAllNodes(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 100, 1023} {
		for _, p := range []int{1, 2, 7, 64, 1000} {
			pt := NewPartition(n, p)
			count := pt.Count(n)
			if n > 0 && (count < 1 || count > p) {
				t.Fatalf("n=%d p=%d: count %d outside [1, p]", n, p, count)
			}
			for v := 0; v < n; v++ {
				sh := pt.ShardOf(graph.NodeID(v))
				if sh < 0 || sh >= count {
					t.Fatalf("n=%d p=%d: node %d in shard %d of %d", n, p, v, sh, count)
				}
				if l := pt.LocalOf(graph.NodeID(v)); l != v-sh*pt.Stride() {
					t.Fatalf("n=%d p=%d: node %d local %d, want %d", n, p, v, l, v-sh*pt.Stride())
				}
			}
		}
	}
}

// TestStoreMatchesGraph checks that the store's published snapshot is
// indistinguishable from the source graph through the View interface,
// across shard counts and graph shapes.
func TestStoreMatchesGraph(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(80)
		m := rng.Intn(5 * n)
		g := randomGraph(t, n, m, rng)
		for _, p := range []int{1, 2, 7, 64} {
			st := NewStore(g, p, 2)
			if err := st.Validate(); err != nil {
				t.Fatal(err)
			}
			snap := st.Current()
			if err := snap.Validate(); err != nil {
				t.Fatal(err)
			}
			assertViewsMatch(t, g, snap)
			if gs, ss := g.ComputeStats(), graph.ComputeViewStats(snap); gs != ss {
				t.Fatalf("p=%d: snapshot stats %+v != graph stats %+v", p, ss, gs)
			}
		}
	}
}

// TestShardedAdjMatchesInterface checks the devirtualized sharded Adj
// against the snapshot's interface methods: same lists, same degrees.
func TestShardedAdjMatchesInterface(t *testing.T) {
	rng := xrand.New(77)
	g := randomGraph(t, 200, 900, rng)
	st := NewStore(g, 7, 0)
	snap := st.Current()
	adj := graph.ResolveAdj(snap)
	if adj.NumNodes() != snap.NumNodes() {
		t.Fatalf("adj nodes %d != %d", adj.NumNodes(), snap.NumNodes())
	}
	for v := graph.NodeID(0); int(v) < snap.NumNodes(); v++ {
		if adj.InDegree(v) != snap.InDegree(v) || adj.OutDegree(v) != snap.OutDegree(v) {
			t.Fatalf("node %d: adj degrees diverge", v)
		}
		in, out := adj.In(v), adj.Out(v)
		for i, w := range snap.InNeighbors(v) {
			if in[i] != w {
				t.Fatalf("node %d in[%d]: adj %d != snapshot %d", v, i, in[i], w)
			}
		}
		for i, w := range snap.OutNeighbors(v) {
			if out[i] != w {
				t.Fatalf("node %d out[%d]: adj %d != snapshot %d", v, i, out[i], w)
			}
		}
	}
}

// TestPublishRebuildsOnlyTouchedShards pins the tentpole property: after
// a publication, a small edge batch must rebuild only the shards whose
// ranges it touched, reusing every other shard CSR by reference.
func TestPublishRebuildsOnlyTouchedShards(t *testing.T) {
	g := gen.ErdosRenyi(4096, 16384, 5)
	st := NewStore(g, 64, 4)
	if got := st.NumShards(); got != 64 {
		t.Fatalf("expected 64 shards for 4096 nodes, got %d", got)
	}
	before := st.Stats()
	s0 := st.Current()

	// One edge inside shard 3's range (both endpoints), far from shard 0.
	stride := st.Partition().Stride()
	u := graph.NodeID(3 * stride)
	v := graph.NodeID(3*stride + 1)
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: u, V: v}}); err != nil {
		t.Fatal(err)
	}
	s1 := st.Publish()
	after := st.Stats()
	if rebuilt := after.ShardsRebuilt - before.ShardsRebuilt; rebuilt != 1 {
		t.Fatalf("single intra-shard edge rebuilt %d shards, want 1", rebuilt)
	}
	if reused := after.ShardsReused - before.ShardsReused; reused != 63 {
		t.Fatalf("reused %d shards, want 63", reused)
	}
	// Reuse is by reference: untouched shard CSR arrays are shared.
	if &s0.csr[0].InDst[0] != &s1.csr[0].InDst[0] {
		t.Fatal("untouched shard was copied, not shared")
	}
	if &s0.csr[3].OutDst[0] == &s1.csr[3].OutDst[0] {
		t.Fatal("touched shard was not rebuilt")
	}
	// Old snapshot immutability.
	if s0.NumEdges() != s1.NumEdges()-1 {
		t.Fatalf("old snapshot mutated: %d vs %d edges", s0.NumEdges(), s1.NumEdges())
	}
	// A cross-shard edge touches exactly two shards.
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: graph.NodeID(5 * stride), V: graph.NodeID(9 * stride)}}); err != nil {
		t.Fatal(err)
	}
	mid := st.Stats()
	st.Publish()
	after = st.Stats()
	if rebuilt := after.ShardsRebuilt - mid.ShardsRebuilt; rebuilt != 2 {
		t.Fatalf("cross-shard edge rebuilt %d shards, want 2", rebuilt)
	}
	// No-op publish returns the identical snapshot.
	s2 := st.Current()
	if st.Publish() != s2 {
		t.Fatal("no-op publish replaced the snapshot")
	}
	if st.Stats().NoopPublishes == 0 {
		t.Fatal("no-op publish not counted")
	}
}

// TestPublishReencodesOnlyMovedSides: a batch whose edges all leave
// shard 0 for shard 2 moves only shard 0's out-side and shard 2's
// in-side. Publication re-encodes just those two sides and shares the
// other two with the previous snapshot by reference, and the result
// equals a fresh store of the same graph, offsets and destinations alike.
func TestPublishReencodesOnlyMovedSides(t *testing.T) {
	const n = 256
	g := randomGraph(t, n, 2000, xrand.New(17))
	st := NewStore(g.Clone(), 4, 0)
	stride := st.Partition().Stride()
	s0 := st.Current()
	before := st.Stats()
	ops := []graph.EdgeOp{
		{U: 1, V: graph.NodeID(2*stride + 3)},
		{U: 5, V: graph.NodeID(2*stride + 9)},
		{U: 1, V: graph.NodeID(2*stride + 9)},
	}
	// A removal of an existing 0 -> 2 edge moves the same two sides.
	for u := graph.NodeID(0); int(u) < stride; u++ {
		if v := g.OutNeighbors(u); len(v) > 0 && st.Partition().ShardOf(v[0]) == 2 {
			ops = append(ops, graph.EdgeOp{U: u, V: v[0], Remove: true})
			break
		}
	}
	if len(ops) != 4 {
		t.Fatal("the graph has no edge from shard 0 to shard 2 to remove")
	}
	if _, err := st.ApplyBatch(0, ops); err != nil {
		t.Fatal(err)
	}
	mirror := g.Clone()
	for _, op := range ops {
		apply := mirror.AddEdge
		if op.Remove {
			apply = mirror.RemoveEdge
		}
		if err := apply(op.U, op.V); err != nil {
			t.Fatal(err)
		}
	}
	s1 := st.Publish()
	shared := func(a, b []graph.NodeID) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }
	sharedOff := func(a, b []uint32) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }
	if !shared(s0.csr[0].InDst, s1.csr[0].InDst) || !sharedOff(s0.csr[0].InOff, s1.csr[0].InOff) {
		t.Fatal("shard 0's in-side was re-encoded, though only its out-lists moved")
	}
	if !shared(s0.csr[2].OutDst, s1.csr[2].OutDst) || !sharedOff(s0.csr[2].OutOff, s1.csr[2].OutOff) {
		t.Fatal("shard 2's out-side was re-encoded, though only its in-lists moved")
	}
	if shared(s0.csr[0].OutDst, s1.csr[0].OutDst) || shared(s0.csr[2].InDst, s1.csr[2].InDst) {
		t.Fatal("a moved side was not re-encoded")
	}
	for _, p := range []int{1, 3} {
		if !shared(s0.csr[p].InDst, s1.csr[p].InDst) || !shared(s0.csr[p].OutDst, s1.csr[p].OutDst) {
			t.Fatalf("untouched shard %d was re-encoded", p)
		}
	}
	after := st.Stats()
	if got, want := after.EdgesReEncoded-before.EdgesReEncoded, int64(len(s1.csr[0].OutDst)+len(s1.csr[2].InDst)); got != want {
		t.Fatalf("re-encoded %d entries, want %d (the two moved sides)", got, want)
	}
	if rebuilt := after.ShardsRebuilt - before.ShardsRebuilt; rebuilt != 2 {
		t.Fatalf("rebuilt %d shards, want 2", rebuilt)
	}
	if err := s1.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh := NewStore(mirror, 4, 0).Current()
	for p := range fresh.csr {
		a, b := fresh.csr[p], s1.csr[p]
		if !slices.Equal(a.InOff, b.InOff) || !slices.Equal(a.InDst, b.InDst) ||
			!slices.Equal(a.OutOff, b.OutOff) || !slices.Equal(a.OutDst, b.OutDst) {
			t.Fatalf("shard %d differs from a fresh store of the same graph", p)
		}
	}
	assertViewsMatch(t, mirror, s1)
}

// TestStoreChurnAgainstGraph mirrors random mutations into a monolithic
// graph and a sharded store and re-checks structural equality after every
// publication round, including removals (whose swap-with-tail semantics
// must match exactly for bit-identical queries).
func TestStoreChurnAgainstGraph(t *testing.T) {
	rng := xrand.New(13)
	const n = 120
	g := randomGraph(t, n, 400, rng)
	for _, p := range []int{1, 2, 7, 64} {
		st := NewStore(g.Clone(), p, 3)
		mirror := g.Clone()
		for round := 0; round < 15; round++ {
			for i := 0; i < 20; i++ {
				if rng.Float64() < 0.55 || mirror.NumEdges() == 0 {
					u := graph.NodeID(rng.Intn(n))
					v := graph.NodeID(rng.Intn(n))
					if u == v {
						continue
					}
					if err := mirror.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
					if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: u, V: v}}); err != nil {
						t.Fatal(err)
					}
				} else {
					u := graph.NodeID(rng.Intn(n))
					for mirror.OutDegree(u) == 0 {
						u = (u + 1) % n
					}
					v := mirror.OutNeighbors(u)[rng.Intn(mirror.OutDegree(u))]
					if err := mirror.RemoveEdge(u, v); err != nil {
						t.Fatal(err)
					}
					if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: u, V: v, Remove: true}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := st.Validate(); err != nil {
				t.Fatalf("p=%d round %d: %v", p, round, err)
			}
			snap := st.Publish()
			if err := snap.Validate(); err != nil {
				t.Fatalf("p=%d round %d: %v", p, round, err)
			}
			assertViewsMatch(t, mirror, snap)
		}
	}
}

// TestStoreRejectsBadEdges mirrors the graph's validation behavior.
func TestStoreRejectsBadEdges(t *testing.T) {
	st := NewEmpty(4, 2, 0)
	for _, c := range []struct {
		op   graph.EdgeOp
		what string
	}{
		{graph.EdgeOp{U: 0, V: 0}, "self-loop accepted"},
		{graph.EdgeOp{U: -1, V: 2}, "negative node accepted"},
		{graph.EdgeOp{U: 0, V: 4}, "out-of-range node accepted"},
		{graph.EdgeOp{U: 0, V: 1, Remove: true}, "removing a missing edge succeeded"},
	} {
		if _, err := st.ApplyBatch(0, []graph.EdgeOp{c.op}); err == nil {
			t.Fatal(c.what)
		}
	}
}
