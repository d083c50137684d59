package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"probesim/internal/gen"
	"probesim/internal/graph"
)

// TestSnapshotSingleSourceBitIdentical is the behavioral half of the
// snapshot equivalence property: for every execution mode and a fixed
// seed, SingleSource on a CSR snapshot returns bit-identical vectors to
// SingleSource on the slice-of-slice graph, both via the plain entry
// point and via the pooled executor (run twice so the second executor
// query exercises reused scratch).
func TestSnapshotSingleSourceBitIdentical(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 11)
	snap := g.Snapshot()
	for _, mode := range []Mode{ModeAuto, ModeBasic, ModePruned, ModeBatch, ModeRandomized, ModeHybrid} {
		opt := Options{Mode: mode, EpsA: 0.2, Seed: 5, Workers: 4, NumWalks: 300}
		ex := NewExecutor(g, opt)
		for u := graph.NodeID(0); u < 8; u++ {
			want, err := SingleSource(context.Background(), g, u, opt)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			fromSnap, err := SingleSource(context.Background(), snap, u, opt)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			pooled1, err := ex.SingleSource(context.Background(), u)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			pooled2, err := ex.SingleSource(context.Background(), u)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			// Into path with a dirty reused buffer: must be cleared and
			// produce the same vector without reallocating.
			dirty := make([]float64, len(want))
			for i := range dirty {
				dirty[i] = -1
			}
			into, err := ex.SingleSourceInto(context.Background(), u, dirty)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			if &into[0] != &dirty[0] {
				t.Fatalf("mode %v: SingleSourceInto reallocated despite sufficient capacity", mode)
			}
			for _, got := range [][]float64{fromSnap, pooled1, pooled2, into} {
				if len(got) != len(want) {
					t.Fatalf("mode %v u=%d: length %d != %d", mode, u, len(got), len(want))
				}
				for v := range got {
					if got[v] != want[v] {
						t.Fatalf("mode %v u=%d v=%d: snapshot/pooled %v != graph %v",
							mode, u, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestSnapshotEquivalenceUnderChurn re-checks bit-identical results after
// edge insert/remove cycles: mutate, re-snapshot, compare.
func TestSnapshotEquivalenceUnderChurn(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	opt := Options{EpsA: 0.25, Seed: 9, Workers: 2, NumWalks: 200}
	for round := 0; round < 5; round++ {
		// Churn: remove one existing edge, add two new ones.
		var u graph.NodeID
		for g.OutDegree(u) == 0 {
			u++
		}
		v := g.OutNeighbors(u)[0]
		if err := g.RemoveEdge(u, v); err != nil {
			t.Fatal(err)
		}
		a := graph.NodeID((7*round + 3) % 200)
		b := graph.NodeID((11*round + 57) % 200)
		if a != b {
			if err := g.AddEdge(a, b); err != nil {
				t.Fatal(err)
			}
		}
		snap := g.Snapshot()
		q := graph.NodeID(round * 13 % 200)
		want, err := SingleSource(context.Background(), g, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SingleSource(context.Background(), snap, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: snapshot diverges at node %d: %v != %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestExecutorRefresh verifies snapshot publication semantics: stale until
// Refresh, atomic switch after, old snapshots untouched.
func TestExecutorRefresh(t *testing.T) {
	g := gen.ErdosRenyi(50, 200, 1)
	ex := NewExecutor(g, Options{EpsA: 0.3, Seed: 2, NumWalks: 50})
	s0 := ex.Snapshot()
	if s0.Version() != g.Version() {
		t.Fatalf("initial snapshot version %d != graph version %d", s0.Version(), g.Version())
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if ex.Snapshot() != s0 {
		t.Fatal("snapshot moved without Refresh")
	}
	s1 := ex.Refresh()
	if s1 == s0 || s1.Version() != g.Version() {
		t.Fatalf("Refresh did not publish the mutated graph (versions: %d vs %d)", s1.Version(), g.Version())
	}
	if ex.Refresh() != s1 {
		t.Fatal("Refresh on an unchanged graph must return the same snapshot")
	}
	if s0.NumEdges() != s1.NumEdges()-1 {
		t.Fatalf("old snapshot mutated: %d edges vs new %d", s0.NumEdges(), s1.NumEdges())
	}
}

// TestScratchPoolReuse checks that put zeroes what a query touched, that
// the pool actually recycles scratch sets (same pointer back on the
// second get), and that it keys them by size.
func TestScratchPoolReuse(t *testing.T) {
	var p scratchPool
	s1 := p.get(100)
	s1.add(7, 0.25)
	s1.add(42, 1)
	s1.add(7, 0.5)
	s1.set(3, 1)
	p.put(s1)
	if len(s1.touched) != 0 {
		t.Fatalf("put left %d touched entries", len(s1.touched))
	}
	for i, x := range s1.acc {
		if x != 0 {
			t.Fatalf("put left the accumulator dirty at %d", i)
		}
	}
	s2 := p.get(100)
	if s1 != s2 {
		t.Skip("sync.Pool dropped the entry (GC pressure); nothing to assert")
	}
	p.put(s2)
	if s3 := p.get(200); s3.n != 200 || len(s3.acc) != 200 {
		t.Fatalf("pool returned wrong size: n=%d len=%d", s3.n, len(s3.acc))
	}
}

// TestQuerierSingleFlight launches many concurrent misses for one node
// and asserts exactly one computation ran, all callers got the same
// answer, and the shared-flight counter saw the rest.
func TestQuerierSingleFlight(t *testing.T) {
	g := gen.PreferentialAttachment(300, 4, 21)
	// Workers: 1 inside the query so the concurrency is all at the Querier
	// layer; NumWalks large enough that the flight stays open while the
	// other goroutines arrive.
	q := NewQuerier(g, Options{EpsA: 0.1, Seed: 3, Workers: 1}, 4)

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*Ranked, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := q.Ranked(context.Background(), 7)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	hits, misses, _ := q.Stats()
	if misses != 1 {
		t.Fatalf("%d concurrent identical queries ran %d computations, want 1", callers, misses)
	}
	if got := hits + q.SharedFlights(); got != callers-1 {
		t.Fatalf("hits+shared = %d, want %d", got, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different answer than caller 0", i)
		}
	}
}

// TestQuerierStaleSnapshotBypassesCache pins the no-thrash rule: a query
// that grabbed its snapshot before a concurrent writer advanced the cache
// must be served from that old snapshot WITHOUT resetting the (newer)
// cache — rolling q.version backward would wipe the warm cache on every
// slow request that overlaps a write.
func TestQuerierStaleSnapshotBypassesCache(t *testing.T) {
	g := gen.ErdosRenyi(80, 320, 12)
	opt := Options{EpsA: 0.3, Seed: 8, NumWalks: 80}
	q := NewQuerierOn(NewExecutor(g, opt), 4)
	if _, err := q.SingleSource(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	_, _, cachedBefore := q.Stats()
	// Simulate the race deterministically: pretend another goroutine has
	// already advanced the cache past the snapshot this request will grab.
	q.mu.Lock()
	q.version++
	bumped := q.version
	q.mu.Unlock()
	got, err := q.SingleSource(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	ver := q.version
	q.mu.Unlock()
	_, _, cachedAfter := q.Stats()
	if ver != bumped {
		t.Fatalf("stale-snapshot query rolled the cache version back: %d -> %d", bumped, ver)
	}
	if cachedAfter != cachedBefore {
		t.Fatalf("stale-snapshot query disturbed the cache: %d -> %d vectors", cachedBefore, cachedAfter)
	}
	want, err := SingleSource(context.Background(), q.Executor().Snapshot(), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bypass result diverges at node %d", i)
		}
	}
}

// TestExecutorConcurrentQueryAndRefresh races pooled queries against
// snapshot publication (run with -race in CI): queries must always see a
// consistent snapshot, never a half-mutated graph.
func TestExecutorConcurrentQueryAndRefresh(t *testing.T) {
	g := gen.PreferentialAttachment(200, 3, 8)
	ex := NewExecutor(g, Options{EpsA: 0.3, Seed: 6, Workers: 2, NumWalks: 100})
	var stop atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex // stands in for the server's write mutex
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := ex.SingleSource(context.Background(), graph.NodeID(seed*17%200)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			u := graph.NodeID(i % 199)
			mu.Lock()
			if err := g.AddEdge(u, u+1); err != nil {
				mu.Unlock()
				t.Error(err)
				return
			}
			ex.Refresh()
			mu.Unlock()
		}
		stop.Store(true)
	}()
	wg.Wait()
	if v := ex.Snapshot().Version(); v != g.Version() {
		t.Fatalf("final snapshot version %d != graph version %d", v, g.Version())
	}
}
