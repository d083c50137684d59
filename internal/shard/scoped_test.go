package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"probesim/internal/graph"
)

// scopedFixture builds one full store and a W-worker fleet of scoped
// stores over the same random graph.
func scopedFixture(t *testing.T, n, shards, workers int, seed int64) (*Store, []*Store, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < 6*n; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v {
			_ = g.AddEdge(u, v)
		}
	}
	full := NewStore(g, shards, 0)
	scoped := make([]*Store, workers)
	for w := range scoped {
		scoped[w] = NewStoreScoped(g, shards, 0, w, workers)
	}
	return full, scoped, g
}

// assertScopedAgreement checks the fleet-wide lockstep contract: every
// scoped store agrees with the full store on all counters and per-shard
// versions, owned shard CSRs are byte-identical, non-owned are absent.
func assertScopedAgreement(t *testing.T, full *Store, scoped []*Store) {
	t.Helper()
	fs := full.Current()
	for w, st := range scoped {
		if st.Version() != full.Version() || st.NumEdges() != full.NumEdges() || st.NumNodes() != full.NumNodes() {
			t.Fatalf("worker %d diverged: version %d/%d edges %d/%d nodes %d/%d",
				w, st.Version(), full.Version(), st.NumEdges(), full.NumEdges(), st.NumNodes(), full.NumNodes())
		}
		if st.LastBatch() != full.LastBatch() {
			t.Fatalf("worker %d watermark %d, full %d", w, st.LastBatch(), full.LastBatch())
		}
		ss := st.Current()
		if !ss.Scoped() {
			t.Fatalf("worker %d snapshot not marked scoped", w)
		}
		if err := ss.Validate(); err != nil {
			t.Fatalf("worker %d snapshot invalid: %v", w, err)
		}
		if ss.NumShards() != fs.NumShards() {
			t.Fatalf("worker %d has %d shards, full %d", w, ss.NumShards(), fs.NumShards())
		}
		for p := 0; p < ss.NumShards(); p++ {
			if ss.ShardVersion(p) != fs.ShardVersion(p) {
				t.Fatalf("worker %d shard %d version %d, full %d", w, p, ss.ShardVersion(p), fs.ShardVersion(p))
			}
			owned := p%len(scoped) == w
			if ss.ShardPresent(p) != owned {
				t.Fatalf("worker %d shard %d present=%v, want %v", w, p, ss.ShardPresent(p), owned)
			}
			if owned && !reflect.DeepEqual(ss.Shard(p), fs.Shard(p)) {
				t.Fatalf("worker %d shard %d CSR differs from full store", w, p)
			}
		}
	}
}

func TestScopedStoreLockstepUnderChurn(t *testing.T) {
	const workers = 3
	full, scoped, g := scopedFixture(t, 200, 16, workers, 11)
	assertScopedAgreement(t, full, scoped)

	// Drive identical batches (including removes of known-present edges
	// and one rejected batch) through the full store and every worker.
	rng := rand.New(rand.NewSource(23))
	all := append([]*Store{full}, scoped...)
	var batch uint64
	for round := 0; round < 20; round++ {
		var ops []EdgeOp
		for i := 0; i < 8; i++ {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			if outs := full.Current().OutNeighbors(u); len(outs) > 0 && rng.Intn(3) == 0 {
				ops = append(ops, EdgeOp{Remove: true, U: u, V: outs[rng.Intn(len(outs))]})
				// One remove per batch: a second random remove could pick
				// the same occurrence twice, which the full store rejects
				// but a worker owning neither endpoint cannot see.
				break
			}
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			if u != v {
				ops = append(ops, EdgeOp{Remove: false, U: u, V: v})
			}
		}
		if len(ops) == 0 {
			continue
		}
		batch++
		for _, st := range all {
			if _, err := st.ApplyBatch(batch, ops); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
		for _, st := range all {
			st.Publish()
		}
		assertScopedAgreement(t, full, scoped)
	}

	for _, st := range all {
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScopedRemoveValidation pins the ownership-aware existence check: a
// remove of a missing edge is rejected by every worker owning one of the
// endpoints' shards, and the whole batch rolls back there.
func TestScopedRemoveValidation(t *testing.T) {
	full, scoped, _ := scopedFixture(t, 64, 8, 2, 5)
	snap := full.Current()
	// Find an edge that does NOT exist.
	var u, v graph.NodeID
found:
	for u = 0; int(u) < full.NumNodes(); u++ {
		for v = 0; int(v) < full.NumNodes(); v++ {
			if u == v {
				continue
			}
			present := false
			for _, w := range snap.OutNeighbors(u) {
				if w == v {
					present = true
					break
				}
			}
			if !present {
				break found
			}
		}
	}
	ops := []EdgeOp{{U: u, V: v, Remove: true}}
	if _, err := full.ApplyBatch(1, ops); err == nil {
		t.Fatal("full store accepted a remove of a missing edge")
	}
	pu, pv := full.Partition().ShardOf(u), full.Partition().ShardOf(v)
	for w, st := range scoped {
		_, err := st.ApplyBatch(1, ops)
		ownsEndpoint := pu%2 == w || pv%2 == w
		if ownsEndpoint && err == nil {
			t.Fatalf("worker %d owns an endpoint shard but accepted the bad remove", w)
		}
		if !ownsEndpoint && err != nil {
			t.Fatalf("worker %d owns neither endpoint but rejected: %v", w, err)
		}
	}
}

// TestScopedRestoreRoundTrip checks RestoreScoped against a scoped
// snapshot's own blocks, and that it rejects out-of-scope data.
func TestScopedRestoreRoundTrip(t *testing.T) {
	_, scoped, _ := scopedFixture(t, 128, 8, 2, 7)
	for w, st := range scoped {
		snap := st.Current()
		csr := make([]graph.CSRShard, snap.NumShards())
		versions := make([]uint64, snap.NumShards())
		for p := range csr {
			csr[p] = snap.Shard(p)
			versions[p] = snap.ShardVersion(p)
		}
		re, err := RestoreScoped(snap.NumNodes(), snap.NumEdges(), snap.Version(), snap.LastBatch(),
			snap.Shift(), csr, versions, 0, w, 2)
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		rs := re.Current()
		for p := 0; p < rs.NumShards(); p++ {
			if !reflect.DeepEqual(rs.Shard(p), snap.Shard(p)) || rs.ShardVersion(p) != snap.ShardVersion(p) {
				t.Fatalf("worker %d shard %d did not round-trip", w, p)
			}
		}
		// The OTHER worker's scope must refuse this data.
		if _, err := RestoreScoped(snap.NumNodes(), snap.NumEdges(), snap.Version(), snap.LastBatch(),
			snap.Shift(), csr, versions, 0, 1-w, 2); err == nil {
			t.Fatalf("worker %d data restored under the wrong scope", w)
		}
	}
}

func ExampleNewStoreScoped() {
	g := graph.New(8)
	_ = g.AddEdge(0, 1)
	st := NewStoreScoped(g, 4, 0, 0, 2) // owns shards 0 and 2 of 4
	snap := st.Current()
	fmt.Println(snap.Scoped(), snap.ShardPresent(0), snap.ShardPresent(1))
	// Output: true true false
}
