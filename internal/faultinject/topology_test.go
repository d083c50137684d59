package faultinject

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/router"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// tcpFleet serves two TCP workers splitting shard ownership and returns
// a router over them.
func tcpFleet(t *testing.T, g *graph.Graph, shards int) *router.Router {
	t.Helper()
	var engines []router.ShardEngine
	for i := 0; i < 2; i++ {
		srv := router.NewServer(router.NewLocalEngine(shard.NewStore(g, shards, 0), i, 2))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		re := router.NewRemoteEngine(ln.Addr().String())
		t.Cleanup(func() { re.Close() })
		engines = append(engines, re)
	}
	rt, err := router.New(engines...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestTopologyMatrixBitIdentical is the cross-topology property: the
// same graph, seed and query must answer bit-identically on every
// serving shape the repo supports — TCP workers, warm views that call
// no engine, and a fault-injected replicated fleet — through rounds of
// identical churn.
func TestTopologyMatrixBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets + many RPC round trips")
	}
	const n, shards = 400, 8
	g := gen.PreferentialAttachment(n, 4, 11)
	ref := shard.NewStore(g, shards, 0)
	opt := testOptions()
	want := core.NewExecutorOn(ref, opt)

	batched := tcpFleet(t, g, shards)

	// The faulted topology: replicated in-process fleet with a read-plane
	// fault schedule on one replica of each group.
	plan := Plan{Seed: 3, PError: 0.15, PLost: 0.10, PSlow: 0.03,
		Slow: time.Millisecond, ReadsOnly: true}
	s0a, s0b := shard.NewStore(g, shards, 0), shard.NewStore(g, shards, 0)
	s1a, s1b := shard.NewStore(g, shards, 0), shard.NewStore(g, shards, 0)
	f0 := Wrap(router.NewLocalEngine(s0a, 0, 2), plan)
	f1 := Wrap(router.NewLocalEngine(s1a, 1, 2), plan)
	faulted, err := router.NewReplicated([][]router.ShardEngine{
		{f0, router.NewLocalEngine(s0b, 0, 2)},
		{f1, router.NewLocalEngine(s1b, 1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}

	topologies := []struct {
		name string
		rt   *router.Router
	}{
		{"batched", batched},
		{"faulted", faulted},
	}
	nodes := []graph.NodeID{0, 7, 131, 399}
	for _, tp := range topologies {
		assertIdentical(t, tp.name, want, core.NewExecutorOn(tp.rt, opt), nodes)
	}

	// Warm views: the passes above fetched every router's blocks, so a
	// repeat query runs on router-side adjacency alone and calls no
	// engine. Assert both the bits and the calls.
	for _, tp := range topologies {
		before := engineCalls(tp.rt)
		assertIdentical(t, tp.name+"-warm", want, core.NewExecutorOn(tp.rt, opt), nodes[:2])
		if d := engineCalls(tp.rt) - before; d != 0 {
			t.Fatalf("%s: warm queries made %d engine calls", tp.name, d)
		}
	}

	// Churn: identical batches through every topology and the reference,
	// republish, re-verify. Each new generation is fetched cold again on
	// each shape.
	rng := xrand.New(99)
	var added [][2]graph.NodeID
	for round := 0; round < 3; round++ {
		ops := randomOps(rng, n, &added, 15)
		applyToStore(t, ref, ops)
		ref.Publish()
		for _, tp := range topologies {
			if err := tp.rt.Apply(context.Background(), ops); err != nil {
				t.Fatalf("round %d %s: %v", round, tp.name, err)
			}
			if _, err := tp.rt.PublishView(context.Background()); err != nil {
				t.Fatalf("round %d %s publish: %v", round, tp.name, err)
			}
			assertIdentical(t, fmt.Sprintf("churn-%d-%s", round, tp.name), want, core.NewExecutorOn(tp.rt, opt), nodes[:2])
		}
	}

	if f0.Injected()+f1.Injected() == 0 {
		t.Fatal("fault schedule injected nothing; the faulted topology was not exercised")
	}
}

// engineCalls is what queries have cost a router's engines: every shard
// block it fetched (or tried to), plus every request its remote engines
// sent.
func engineCalls(rt *router.Router) int64 {
	n := rt.Counters().ShardFetches
	for _, ws := range rt.WorkerStats() {
		n += ws.Calls
	}
	return n
}
