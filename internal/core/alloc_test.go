//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so the
// allocation bound below only holds in a normal build.

package core

import (
	"context"
	"runtime"
	"testing"

	"probesim/internal/gen"
	"probesim/internal/graph"
)

// TestTopKAllocatesLessThanOneVector bounds what a warm TopK allocates:
// scratch comes from the package pool and the answer is ranked from the
// touched list, so a query must allocate less than one dense n-vector
// (8n bytes) on average. A fresh scratch set alone is up to ~36n bytes
// per worker; the margin absorbs sync.Pool dropping entries at a GC.
func TestTopKAllocatesLessThanOneVector(t *testing.T) {
	const n, queries = 20_000, 50
	g := gen.PreferentialAttachment(n, 8, 1)
	opt := Options{EpsA: 0.1, Seed: 1}
	ctx := context.Background()
	var sources []graph.NodeID
	for v := graph.NodeID(0); len(sources) < queries; v += 397 {
		if g.InDegree(v%n) > 0 {
			sources = append(sources, v%n)
		}
	}
	for _, u := range sources[:5] { // warm the pool
		if _, err := TopK(ctx, g, u, 50, opt); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range sources {
		if _, err := TopK(ctx, g, u, 50, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / queries
	t.Logf("%d bytes per query (%d workers, n = %d)", perQuery, opt.withDefaults().Workers, n)
	if perQuery >= 8*n {
		t.Fatalf("TopK allocated %d bytes per query, want < 8n = %d", perQuery, 8*n)
	}
}
