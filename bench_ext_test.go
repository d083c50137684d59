package probesim_test

// Benchmarks for the extension studies E-A6..E-A10 (DESIGN.md §6): the
// precomputed-walk index, linearized SimRank, the simulated distributed MC
// cluster, similarity joins, and the supporting substrates they use.

import (
	"context"
	"testing"

	"probesim/internal/cluster"
	"probesim/internal/core"
	"probesim/internal/fingerprint"
	"probesim/internal/linear"
	"probesim/internal/simjoin"
	"probesim/internal/trace"
)

// BenchmarkIndexesFingerprintBuild measures the E-A6 preprocessing cost the
// fingerprint index pays and ProbeSim does not.
func BenchmarkIndexesFingerprintBuild(b *testing.B) {
	g := benchGraph(b, "hepth-s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fingerprint.Build(g, fingerprint.BuildOptions{NumWalks: 400, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexesFingerprintQuery measures the E-A6 query-side payoff:
// single-source answers straight from the stored walks.
func BenchmarkIndexesFingerprintQuery(b *testing.B) {
	g := benchGraph(b, "hepth-s")
	idx, err := fingerprint.Build(g, fingerprint.BuildOptions{NumWalks: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	u := benchQuery(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.SingleSource(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearSingleSource measures the E-A7 linearized query kernel
// (given a diagonal): T sparse propagations, no εa dependence.
func BenchmarkLinearSingleSource(b *testing.B) {
	g := benchGraph(b, "hepth-s")
	d := linear.NaiveDiagonal(g, 0.6)
	u := benchQuery(b, g)
	opt := linear.Options{C: 0.6, T: 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := linear.SingleSource(g, u, d, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinearDiagonalMC measures the E-A7 preprocessing the corrected
// linearization needs before any query can run.
func BenchmarkLinearDiagonalMC(b *testing.B) {
	g := benchGraph(b, "hepth-s")
	opt := linear.Options{C: 0.6, T: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := linear.DiagonalMC(g, opt, linear.MCOptions{Pairs: 100, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleOutCluster measures the E-A8 distributed MC query at the
// partition counts the experiment reports.
func BenchmarkScaleOutCluster(b *testing.B) {
	g := benchGraph(b, "wiki-vote-s")
	u := benchQuery(b, g)
	for _, p := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "p1", 4: "p4", 16: "p16"}[p], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := cluster.SingleSource(g, u, cluster.Config{
					Partitions: p, NumWalks: 400, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinTopK measures the E-A9 global top-k join (n single-source
// queries plus the merge).
func BenchmarkJoinTopK(b *testing.B) {
	g := benchGraph(b, "hepth-s")
	opt := simjoin.Options{Query: core.Options{EpsA: 0.15, Seed: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simjoin.TopKJoin(context.Background(), g, 10, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceUniform measures update-stream generation, the driver of
// the dynamic experiments.
func BenchmarkTraceUniform(b *testing.B) {
	g := benchGraph(b, "hepth-s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Uniform(g, 1000, 0.5, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgressiveTopK measures the any-time top-k (E-A12) against the
// static TopK on the same query: the separated/early-stop regime shows up
// as a large ns/op gap.
func BenchmarkProgressiveTopK(b *testing.B) {
	g := benchGraph(b, "wiki-vote-s")
	u := benchQuery(b, g)
	opt := core.Options{EpsA: 0.025, Seed: 1}
	b.Run("static", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.TopK(context.Background(), g, u, 10, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("progressive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.TopKProgressive(context.Background(), g, u, 10, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChurnApply measures raw adjacency-edit throughput, the only
// "maintenance" ProbeSim pays under churn (E-A11).
func BenchmarkChurnApply(b *testing.B) {
	g := benchGraph(b, "hepth-s").Clone()
	ops, err := trace.Uniform(g, 2000, 0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	undo := trace.Inverse(ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.Apply(g, ops); err != nil {
			b.Fatal(err)
		}
		if err := trace.Apply(g, undo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCC measures the iterative Tarjan pass used by the structure
// reports.
func BenchmarkSCC(b *testing.B) {
	g := benchGraph(b, "livejournal-s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.StronglyConnectedComponents()
	}
}
