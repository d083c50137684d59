package probesim_test

// Benchmarks for the CSR snapshot + pooled executor serving path (PR 1):
// the same single-source query answered by
//
//   - Slices:   core.SingleSource on the mutable slice-of-slice *Graph,
//     returning a fresh result vector per query; and
//   - Snapshot: core.Executor on the immutable CSR snapshot, writing into
//     a reused result buffer — the serving path.
//
// Both draw per-query scratch from core's one scratch pool. Results are
// bit-identical (asserted once per graph before timing); the pair
// measures the representation plus the result vector. Run with
//
//	go test -run '^$' -bench 'BenchmarkSingleSource(Slices|Snapshot)' -benchmem
//
// Committed results live in BENCH_PR1.json.

import (
	"context"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
)

// snapshotBenchSize keeps the two bench graphs big enough that adjacency
// no longer fits in L2 (the serving regime the CSR layout targets) while
// a query stays in the tens of milliseconds.
const snapshotBenchSize = 100_000

func snapshotBenchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := graphCache.Load("snapshot-" + name); ok {
		return g.(*graph.Graph)
	}
	var g *graph.Graph
	switch name {
	case "er":
		g = gen.ErdosRenyi(snapshotBenchSize, 8*snapshotBenchSize, 1)
	case "pa":
		g = gen.PreferentialAttachment(snapshotBenchSize, 8, 1)
	default:
		b.Fatalf("unknown snapshot bench graph %q", name)
	}
	graphCache.Store("snapshot-"+name, g)
	return g
}

// snapshotBenchOpts pins every source of nondeterminism so the two
// variants run the exact same trials: per-walk mode (the probe-dominated
// path both representations serve), fixed walk budget, fixed seed.
func snapshotBenchOpts() core.Options {
	return core.Options{EpsA: 0.1, Seed: 1, Mode: core.ModePruned, NumWalks: 1000}
}

func assertVariantsAgree(b *testing.B, g *graph.Graph, ex *core.Executor, u graph.NodeID) {
	b.Helper()
	want, err := core.SingleSource(context.Background(), g, u, snapshotBenchOpts())
	if err != nil {
		b.Fatal(err)
	}
	got, err := ex.SingleSource(context.Background(), u)
	if err != nil {
		b.Fatal(err)
	}
	for v := range want {
		if want[v] != got[v] {
			b.Fatalf("snapshot result diverges from slices at node %d: %v != %v", v, got[v], want[v])
		}
	}
}

func BenchmarkSingleSourceSlices(b *testing.B) {
	for _, name := range []string{"er", "pa"} {
		b.Run(name, func(b *testing.B) {
			g := snapshotBenchGraph(b, name)
			u := benchQuery(b, g)
			opt := snapshotBenchOpts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SingleSource(context.Background(), g, u, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSingleSourceSnapshot(b *testing.B) {
	for _, name := range []string{"er", "pa"} {
		b.Run(name, func(b *testing.B) {
			g := snapshotBenchGraph(b, name)
			u := benchQuery(b, g)
			ex := core.NewExecutor(g, snapshotBenchOpts())
			assertVariantsAgree(b, g, ex, u)
			// Steady-state serving: scratch comes from the pool, the result
			// is written into a reused buffer.
			buf := make([]float64, g.NumNodes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ex.SingleSourceInto(context.Background(), u, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = out
			}
		})
	}
}

// BenchmarkSingleSourceBudgeted is BenchmarkSingleSourceSnapshot with an
// ARMED budget meter: a far-off deadline plus generous walk/work caps, so
// every checkpoint, walk charge and per-level work charge executes but
// never trips. The delta against BenchmarkSingleSourceSnapshot (whose
// un-budgeted queries run with a nil meter) prices the deadline seam
// itself; BENCH_PR3.json records both next to the PR2 numbers.
func BenchmarkSingleSourceBudgeted(b *testing.B) {
	for _, name := range []string{"er", "pa"} {
		b.Run(name, func(b *testing.B) {
			g := snapshotBenchGraph(b, name)
			u := benchQuery(b, g)
			opt := snapshotBenchOpts()
			opt.Budget = core.Budget{
				Timeout:      time.Hour,
				MaxWalks:     1 << 40,
				MaxProbeWork: 1 << 60,
			}
			ex := core.NewExecutor(g, opt)
			buf := make([]float64, g.NumNodes())
			// Warm the scratch pool exactly like the Snapshot variant does
			// via its agreement check, so both loops time steady state.
			if _, err := ex.SingleSourceInto(context.Background(), u, buf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ex.SingleSourceInto(context.Background(), u, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = out
			}
		})
	}
}

// BenchmarkTopKBudget prices the deadline seam on the top-k path: the
// same top-50 query through the pooled executor with a nil meter
// (unbudgeted) and with an armed-but-never-tripping meter (budgeted).
func BenchmarkTopKBudget(b *testing.B) {
	g := snapshotBenchGraph(b, "pa")
	u := benchQuery(b, g)
	run := func(b *testing.B, opt core.Options) {
		ex := core.NewExecutor(g, opt)
		if _, err := ex.TopK(context.Background(), u, 50); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ex.TopK(context.Background(), u, 50); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unbudgeted", func(b *testing.B) { run(b, snapshotBenchOpts()) })
	b.Run("budgeted", func(b *testing.B) {
		opt := snapshotBenchOpts()
		opt.Budget = core.Budget{Timeout: time.Hour, MaxWalks: 1 << 40, MaxProbeWork: 1 << 60}
		run(b, opt)
	})
}

// BenchmarkSnapshotBuild prices publication: the O(n+m) cost a mutation
// batch pays once, amortized over every lock-free query that follows.
func BenchmarkSnapshotBuild(b *testing.B) {
	for _, name := range []string{"er", "pa"} {
		b.Run(name, func(b *testing.B) {
			g := snapshotBenchGraph(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Snapshot()
			}
		})
	}
}
