package probesim_test

// Benchmarks for the distributed shard plane (PR 4): the router's local
// fast path must be at parity with the direct sharded store (the PR 3
// serving configuration), and the generic engine path over in-process
// engines bounds what the transport seam itself costs before any network.
//
//   - BenchmarkRouterSingleSource/direct-store: PR 3's configuration,
//     core.Executor straight over shard.Store.
//   - BenchmarkRouterSingleSource/router-local: the same store behind
//     router.NewLocal — the fast path must add nothing (it serves the
//     store's own snapshots).
//   - BenchmarkRouterSingleSource/router-engines: two in-process engines
//     splitting shard ownership through the generic path (one bulk fetch
//     per view generation, then walks and probes over the materialized
//     composite view) — the in-memory cost of the distribution seam,
//     network excluded.
//   - BenchmarkRouterSingleSource/router-tcp-batched: the same topology
//     over real loopback TCP (one ResolveShards per worker group per
//     generation) — what a real fleet pays per query.
//   - BenchmarkRouterSingleSource/router-tcp-batched-churn: the same
//     sockets with a fresh generation published before every query, so
//     each iteration refetches the shards its churn batch moved (every
//     other block carries over from the previous generation).
//
// Run with
//
//	go test -run '^$' -bench 'BenchmarkRouter' -benchmem
//
// Committed results live in BENCH_PR4.json and BENCH_PR8.json.

import (
	"context"
	"net"
	"testing"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/router"
	"probesim/internal/shard"
)

// shardBenchShards is the requested partition bound for the 100k-node
// bench graphs; with the power-of-two stride this lands on 391 shards of
// 256 node ids, so a batch of b edges touches at most 2b of ~391 shards.
const shardBenchShards = 512

func shardBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	if g, ok := graphCache.Load("shard-pa"); ok {
		return g.(*graph.Graph)
	}
	g := gen.PreferentialAttachment(snapshotBenchSize, 8, 1)
	graphCache.Store("shard-pa", g)
	return g
}

// benchTCPFleet serves two TCP workers splitting shard ownership and
// returns a router over them.
func benchTCPFleet(b *testing.B, g *graph.Graph) *router.Router {
	b.Helper()
	var engines []router.ShardEngine
	for i := 0; i < 2; i++ {
		srv := router.NewServer(router.NewLocalEngine(shard.NewStore(g, shardBenchShards, 0), i, 2))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		b.Cleanup(func() { srv.Close() })
		re := router.NewRemoteEngine(ln.Addr().String())
		b.Cleanup(func() { re.Close() })
		engines = append(engines, re)
	}
	rt, err := router.New(engines...)
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

func BenchmarkRouterSingleSource(b *testing.B) {
	g := shardBenchGraph(b)
	u := benchQuery(b, g)
	opt := snapshotBenchOpts()

	st := shard.NewStore(g, shardBenchShards, 0)
	stA := shard.NewStore(g, shardBenchShards, 0)
	stB := shard.NewStore(g, shardBenchShards, 0)
	local := router.NewLocal(shard.NewStore(g, shardBenchShards, 0))
	split, err := router.New(router.NewLocalEngine(stA, 0, 2), router.NewLocalEngine(stB, 1, 2))
	if err != nil {
		b.Fatal(err)
	}

	want, err := core.SingleSource(context.Background(), st.Current(), u, opt)
	if err != nil {
		b.Fatal(err)
	}
	for name, provider := range map[string]core.SnapshotProvider{
		"router-local": local, "router-engines": split,
	} {
		got, err := core.SingleSource(context.Background(), provider.PublishedView(), u, opt)
		if err != nil {
			b.Fatal(err)
		}
		for v := range want {
			if want[v] != got[v] {
				b.Fatalf("%s diverges from direct store at node %d: %v != %v", name, v, got[v], want[v])
			}
		}
	}

	run := func(provider core.SnapshotProvider) func(*testing.B) {
		return func(b *testing.B) {
			ex := core.NewExecutorOn(provider, opt)
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
		}
	}
	// Churn variants publish a fresh generation before every query, so
	// each iteration refetches the blocks of the shards the batch moved
	// and carries the rest. A warm view answers with zero read RPCs.
	runChurn := func(rt *router.Router) func(*testing.B) {
		return func(b *testing.B) {
			ex := core.NewExecutorOn(rt, opt)
			buf := make([]float64, g.NumNodes())
			ctx := context.Background()
			// Net-zero churn: add and remove the same edge in one batch.
			// The version still moves, invalidating the cached view.
			ops := []graph.EdgeOp{{U: u, V: u + 1}, {Remove: true, U: u, V: u + 1}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Apply(ctx, ops); err != nil {
					b.Fatal(err)
				}
				if _, err := rt.PublishView(ctx); err != nil {
					b.Fatal(err)
				}
				out, err := ex.SingleSourceInto(ctx, u, buf)
				if err != nil {
					b.Fatal(err)
				}
				buf = out
			}
		}
	}

	b.Run("direct-store", run(st))
	b.Run("router-local", run(local))
	b.Run("router-engines", run(split))
	b.Run("router-tcp-batched", run(benchTCPFleet(b, g)))
	b.Run("router-tcp-batched-churn", runChurn(benchTCPFleet(b, g)))
}
