package core

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// recordingView records every node whose lists or degrees the kernel
// reads through it. It implements neither graph.AdjProvider nor
// QueryBinder, so graph.ResolveAdj routes every access through these
// methods.
type recordingView struct {
	inner graph.View
	read  []atomic.Bool
}

func newRecordingView(g graph.View) *recordingView {
	return &recordingView{inner: g, read: make([]atomic.Bool, g.NumNodes())}
}

func (rv *recordingView) NumNodes() int   { return rv.inner.NumNodes() }
func (rv *recordingView) NumEdges() int64 { return rv.inner.NumEdges() }
func (rv *recordingView) InNeighbors(v graph.NodeID) []graph.NodeID {
	rv.read[v].Store(true)
	return rv.inner.InNeighbors(v)
}
func (rv *recordingView) OutNeighbors(u graph.NodeID) []graph.NodeID {
	rv.read[u].Store(true)
	return rv.inner.OutNeighbors(u)
}
func (rv *recordingView) InDegree(v graph.NodeID) int {
	rv.read[v].Store(true)
	return rv.inner.InDegree(v)
}
func (rv *recordingView) OutDegree(u graph.NodeID) int {
	rv.read[u].Store(true)
	return rv.inner.OutDegree(u)
}

// TestReadSetCoversEveryRead runs the tracked kernel through a recording
// view in every mode and at several worker counts, and checks that the
// reported read set contains every node the view saw read, that the
// per-walk modes report an unbounded set, and that tracking does not move
// a bit of the answer.
func TestReadSetCoversEveryRead(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"pa", gen.PreferentialAttachment(600, 4, 5)},
		{"er", gen.ErdosRenyi(600, 2400, 6)},
	}
	modes := []struct {
		name string
		opt  Options
	}{
		{"auto", Options{Mode: ModeAuto}},
		{"batch", Options{Mode: ModeBatch}},
		{"hybrid", Options{Mode: ModeHybrid}},
		{"hybrid-switch", Options{Mode: ModeHybrid, HybridC0: 1e-4}},
		{"basic", Options{Mode: ModeBasic, NumWalks: 200}},
		{"pruned", Options{Mode: ModePruned, NumWalks: 200}},
		{"randomized", Options{Mode: ModeRandomized, NumWalks: 200}},
	}
	sources := []graph.NodeID{0, 1, 3, 17, 250, 599}
	ctx := context.Background()
	for _, gc := range graphs {
		snap := gc.g.Snapshot()
		for _, mc := range modes {
			for _, workers := range []int{1, 2, 3} {
				opt := mc.opt
				opt.EpsA, opt.Seed, opt.Workers = 0.1, 3, workers
				perWalk := opt.Mode == ModeBasic || opt.Mode == ModePruned || opt.Mode == ModeRandomized
				bounded := 0
				for _, u := range sources {
					rv := newRecordingView(snap)
					got, reads, err := SingleSourceTracked(ctx, rv, u, opt)
					if err != nil {
						t.Fatalf("%s/%s/w%d u=%d: %v", gc.name, mc.name, workers, u, err)
					}
					want, err := SingleSourceRanked(ctx, snap, u, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.Top, want.Top) {
						t.Fatalf("%s/%s/w%d u=%d: tracked answer differs from SingleSourceRanked", gc.name, mc.name, workers, u)
					}
					if perWalk {
						if reads != nil {
							t.Fatalf("%s/%s/w%d u=%d: per-walk mode reported a bounded read set of %d nodes", gc.name, mc.name, workers, u, len(reads))
						}
						continue
					}
					if reads == nil {
						continue // unbounded: a full candidate scan ran
					}
					bounded++
					if !slices.IsSorted(reads) || len(slices.Compact(slices.Clone(reads))) != len(reads) {
						t.Fatalf("%s/%s/w%d u=%d: read set not sorted and unique", gc.name, mc.name, workers, u)
					}
					for v := range rv.read {
						if rv.read[v].Load() {
							if _, ok := slices.BinarySearch(reads, graph.NodeID(v)); !ok {
								t.Fatalf("%s/%s/w%d u=%d: node %d was read but is missing from the read set (%d nodes)",
									gc.name, mc.name, workers, u, v, len(reads))
							}
						}
					}
				}
				if !perWalk && bounded == 0 {
					t.Fatalf("%s/%s/w%d: no source reported a bounded read set", gc.name, mc.name, workers)
				}
			}
		}
	}
}

// TestReadSetHybridSwitchPaths forces the hybrid's randomized
// continuation: on a sparse graph its candidate levels report bounded
// sets, and on a dense one a level's out-degree sum exceeds n, the full
// candidate scan runs and the set is unbounded.
func TestReadSetHybridSwitchPaths(t *testing.T) {
	ctx := context.Background()
	opt := Options{Mode: ModeHybrid, HybridC0: 1e-4, EpsA: 0.1, Seed: 9, Workers: 2}

	sparse := gen.PreferentialAttachment(600, 4, 7).Snapshot()
	batch := opt
	batch.Mode = ModeBatch
	switched := false
	for u := graph.NodeID(0); u < 40; u++ {
		r, reads, err := SingleSourceTracked(ctx, sparse, u, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SingleSourceRanked(ctx, sparse, u, batch)
		if err != nil {
			t.Fatal(err)
		}
		if reads != nil && !slices.Equal(r.Top, b.Top) {
			switched = true // the randomized continuation ran and stayed bounded
		}
	}
	if !switched {
		t.Fatal("no bounded answer took the randomized continuation")
	}

	dense := gen.ErdosRenyi(60, 2400, 8).Snapshot()
	unbounded := false
	for u := graph.NodeID(0); u < 20 && !unbounded; u++ {
		_, reads, err := SingleSourceTracked(ctx, dense, u, opt)
		if err != nil {
			t.Fatal(err)
		}
		unbounded = reads == nil
	}
	if !unbounded {
		t.Fatal("no answer on the dense graph reported the full candidate scan as unbounded")
	}
}

func TestReadSetTouched(t *testing.T) {
	rs := ReadSet{2, 5, 9}
	for _, c := range []struct {
		ops  []graph.EdgeOp
		want bool
	}{
		{[]graph.EdgeOp{{U: 1, V: 3}}, false},
		{[]graph.EdgeOp{{U: 1, V: 3}, {U: 5, V: 7}}, true},
		{[]graph.EdgeOp{{U: 7, V: 9, Remove: true}}, true},
	} {
		if got := rs.Touched(c.ops); got != c.want {
			t.Fatalf("Touched(%v) = %v, want %v", c.ops, got, c.want)
		}
	}
	if !ReadSet(nil).Touched([]graph.EdgeOp{{U: 1, V: 3}}) {
		t.Fatal("an unbounded read set must be touched by every op")
	}
}

// followedQuerier builds a store-backed Querier that follows the store's
// applied-batch stream, as the server wires it.
func followedQuerier(t *testing.T, g *graph.Graph, capacity int) (*shard.Store, *Querier) {
	t.Helper()
	st := shard.NewStore(g, 8, 0)
	q := NewQuerierOn(NewExecutorOn(st, Options{EpsA: 0.2, Seed: 4, Workers: 2}), capacity)
	st.SubscribeApplied(q.Follow(st.Version))
	return st, q
}

// checkFresh asserts that u's answer through q is bit-identical to a
// fresh kernel run on the current snapshot, and reports whether it was a
// cache hit.
func checkFresh(t *testing.T, q *Querier, u graph.NodeID) bool {
	t.Helper()
	before := q.CacheStats().Hits
	got, err := q.Ranked(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SingleSourceRanked(context.Background(), q.Executor().Snapshot(), u, q.Executor().opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || !slices.Equal(got.Top, want.Top) {
		t.Fatalf("source %d: cached answer differs from a fresh run on the current snapshot", u)
	}
	return q.CacheStats().Hits > before
}

// TestQuerierCarryDropsOnlyTouchedAnswers plays random batches through a
// followed Querier: every answer it serves equals a fresh run, untouched
// answers carry across batches as hits, and the invalidation causes
// split as documented.
func TestQuerierCarryDropsOnlyTouchedAnswers(t *testing.T) {
	g := gen.PreferentialAttachment(1000, 4, 21)
	st, q := followedQuerier(t, g, 64)
	rng := xrand.New(22)
	sources := []graph.NodeID{0, 1, 2, 5, 40, 300, 700, 999}
	carried := 0
	var added []graph.EdgeOp
	for round := 0; round < 60; round++ {
		for _, u := range sources {
			checkFresh(t, q, u)
		}
		var ops []graph.EdgeOp
		for len(ops) < 4 {
			if len(added) > 0 && rng.Float64() < 0.3 {
				i := rng.Intn(len(added))
				op := added[i]
				added = slices.Delete(added, i, i+1)
				op.Remove = true
				ops = append(ops, op)
				continue
			}
			u, v := graph.NodeID(rng.Intn(1000)), graph.NodeID(rng.Intn(1000))
			if u != v {
				op := graph.EdgeOp{U: u, V: v}
				added = append(added, op)
				ops = append(ops, op)
			}
		}
		if _, err := st.ApplyBatch(0, ops); err != nil {
			t.Fatal(err)
		}
		st.Publish()
		for _, u := range sources {
			if checkFresh(t, q, u) {
				carried++
			}
		}
	}
	if carried == 0 {
		t.Fatal("no cached answer carried across a batch")
	}
	cs := q.CacheStats()
	if cs.Invalidations.Touched == 0 || cs.Invalidations.Unbounded != 0 || cs.Invalidations.Flush != 0 {
		t.Fatalf("invalidations %+v: want only touched ones", cs.Invalidations)
	}
}

// TestQuerierCarryStopsAtUnexplainedMoves checks a batch into a source,
// which drops its entry, against a move the stream cannot explain: a
// rolled-back batch empties the cache.
func TestQuerierCarryStopsAtUnexplainedMoves(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 13)
	st, q := followedQuerier(t, g, 16)
	const src = graph.NodeID(5)
	checkFresh(t, q, src)

	// A batch into the source drops its entry.
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: 399, V: src}}); err != nil {
		t.Fatal(err)
	}
	st.Publish()
	if checkFresh(t, q, src) {
		t.Fatal("a batch into the source left its cached answer servable")
	}
	if cs := q.CacheStats(); cs.Invalidations.Touched != 1 {
		t.Fatalf("batch into the source: invalidations %+v, want one touched", cs.Invalidations)
	}

	// A batch that rolls back moves the version without a report, and
	// may reorder lists: the next batch's report does not continue the
	// stream, so the cache empties.
	checkFresh(t, q, src)
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: 399, V: src, Remove: true}, {U: 1, V: 1}}); err == nil {
		t.Fatal("a batch with a self-loop applied")
	}
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: 398, V: 397}}); err != nil {
		t.Fatal(err)
	}
	st.Publish()
	if checkFresh(t, q, src) {
		t.Fatal("a cached answer survived a rolled-back batch")
	}
	if cs := q.CacheStats(); cs.Invalidations.Flush != 1 {
		t.Fatalf("invalidations %+v, want one flushed answer", cs.Invalidations)
	}
}
