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

func testOptions() core.Options {
	return core.Options{Mode: core.ModeAuto, Seed: 7, NumWalks: 300}
}

// assertIdentical requires bit-identical single-source and top-k answers
// from the reference and the faulted topology.
func assertIdentical(t *testing.T, tag string, want, got *core.Executor, nodes []graph.NodeID) {
	t.Helper()
	ctx := context.Background()
	for _, u := range nodes {
		w, err := want.SingleSource(ctx, u)
		if err != nil {
			t.Fatalf("%s: reference query %d: %v", tag, u, err)
		}
		g, err := got.SingleSource(ctx, u)
		if err != nil {
			t.Fatalf("%s: faulted query %d: %v", tag, u, err)
		}
		if len(w) != len(g) {
			t.Fatalf("%s: query %d: length %d vs %d", tag, u, len(w), len(g))
		}
		for v := range w {
			if w[v] != g[v] {
				t.Fatalf("%s: query %d: score[%d] = %v vs %v", tag, u, v, w[v], g[v])
			}
		}
		wk, err := want.TopK(ctx, u, 10)
		if err != nil {
			t.Fatalf("%s: reference top-k %d: %v", tag, u, err)
		}
		gk, err := got.TopK(ctx, u, 10)
		if err != nil {
			t.Fatalf("%s: faulted top-k %d: %v", tag, u, err)
		}
		if len(wk) != len(gk) {
			t.Fatalf("%s: top-k %d: length %d vs %d", tag, u, len(wk), len(gk))
		}
		for i := range wk {
			if wk[i] != gk[i] {
				t.Fatalf("%s: top-k %d: rank %d: %+v vs %+v", tag, u, i, wk[i], gk[i])
			}
		}
	}
}

func randomOps(rng *xrand.RNG, n int, added *[][2]graph.NodeID, count int) []graph.EdgeOp {
	ops := make([]graph.EdgeOp, 0, count)
	for len(ops) < count {
		if len(*added) > 0 && rng.Float64() < 0.3 {
			i := rng.Intn(len(*added))
			e := (*added)[i]
			(*added)[i] = (*added)[len(*added)-1]
			*added = (*added)[:len(*added)-1]
			ops = append(ops, graph.EdgeOp{Remove: true, U: e[0], V: e[1]})
			continue
		}
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		ops = append(ops, graph.EdgeOp{U: u, V: v})
		*added = append(*added, [2]graph.NodeID{u, v})
	}
	return ops
}

func applyToStore(t *testing.T, st *shard.Store, ops []graph.EdgeOp) {
	t.Helper()
	if _, err := st.ApplyBatch(0, ops); err != nil {
		t.Fatalf("reference store: %v", err)
	}
}

// TestChaosBitIdenticalUnderFaultSchedule is the acceptance property:
// a 2-group x 2-replica fleet where one replica per group runs under a
// seeded fault schedule (transport errors, lost replies, latency
// spikes, hangs) answers EVERY query — and bit-identically to a
// fault-free single store — because at least one replica per group
// stays reachable and every replica serves the same blocks.
func TestChaosBitIdenticalUnderFaultSchedule(t *testing.T) {
	const n = 400
	for _, seed := range []uint64{1, 2, 3} {
		for _, hedged := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/hedged=%v", seed, hedged), func(t *testing.T) {
				t.Logf("fault schedule seed %d (replayable)", seed)
				g := gen.PreferentialAttachment(n, 4, 11)
				ref := shard.NewStore(g, 8, 0)
				plan := Plan{
					Seed:      seed,
					PError:    0.15,
					PLost:     0.10,
					PSlow:     0.05,
					PHang:     0.02,
					Slow:      2 * time.Millisecond,
					MaxHang:   50 * time.Millisecond,
					ReadsOnly: true,
				}
				s0a, s0b := shard.NewStore(g, 8, 0), shard.NewStore(g, 8, 0)
				s1a, s1b := shard.NewStore(g, 8, 0), shard.NewStore(g, 8, 0)
				f0 := Wrap(router.NewLocalEngine(s0a, 0, 2), plan)
				f1 := Wrap(router.NewLocalEngine(s1a, 1, 2), plan)
				rt, err := router.NewReplicated([][]router.ShardEngine{
					{f0, router.NewLocalEngine(s0b, 0, 2)},
					{f1, router.NewLocalEngine(s1b, 1, 2)},
				})
				if err != nil {
					t.Fatal(err)
				}
				if hedged {
					// MaxDelay sits below the plan's Slow latency: each view
					// generation costs one fetch per group, fewer in this test
					// than the latency tracker needs for its first p99, so
					// MaxDelay IS the effective hedge delay — it must be short
					// enough that a slow-faulted primary triggers the hedge.
					rt.SetHedge(router.HedgePolicy{Enabled: true, MinDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond})
				}
				opt := testOptions()
				want := core.NewExecutorOn(ref, opt)
				got := core.NewExecutorOn(rt, opt)
				nodes := []graph.NodeID{0, 7, 131, 399}
				assertIdentical(t, "static", want, got, nodes)

				// Churn through the faulted fleet (Apply is clean under
				// ReadsOnly; the read plane keeps faulting). Each round is
				// a new view generation and so one more fetch per group
				// that owns a shard the round moved (12 random edges move
				// shards of both groups), the only calls the fault schedule
				// sees: 14 rounds give every seed at least one failover
				// and, hedged, one hedge.
				rng := xrand.New(seed * 1000)
				var added [][2]graph.NodeID
				for round := 0; round < 14; round++ {
					ops := randomOps(rng, n, &added, 12)
					applyToStore(t, ref, ops)
					ref.Publish()
					if err := rt.Apply(context.Background(), ops); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if _, err := rt.PublishView(context.Background()); err != nil {
						t.Fatalf("round %d publish: %v", round, err)
					}
					assertIdentical(t, fmt.Sprintf("churn-%d", round), want, got, nodes[:2])
				}

				if f0.Injected()+f1.Injected() == 0 {
					t.Fatal("fault schedule injected nothing; the property was not exercised")
				}
				c := rt.Counters()
				if c.Failovers == 0 {
					t.Fatalf("no failovers despite %d injected faults: %+v", f0.Injected()+f1.Injected(), c)
				}
				if hedged && c.HedgesSent == 0 {
					t.Fatalf("hedging enabled but no hedges sent: %+v", c)
				}
			})
		}
	}
}

// TestChaosWriteLostReplies faults the WRITE plane of one replica (lost
// apply replies and transport errors) and requires the fleet to
// converge anyway: the clean replica keeps every write available, and
// the faulted one is demoted, replayed from the ring and re-admitted.
func TestChaosWriteLostReplies(t *testing.T) {
	const n = 200
	g := gen.PreferentialAttachment(n, 4, 13)
	ref := shard.NewStore(g, 4, 0)
	stA, stB := shard.NewStore(g, 4, 0), shard.NewStore(g, 4, 0)
	flaky := Wrap(router.NewLocalEngine(stA, 0, 1), Plan{
		Seed:   9,
		PError: 0.15,
		PLost:  0.30,
	})
	rt, err := router.NewReplicated([][]router.ShardEngine{
		{flaky, router.NewLocalEngine(stB, 0, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	want := core.NewExecutorOn(ref, opt)
	got := core.NewExecutorOn(rt, opt)

	rng := xrand.New(77)
	var added [][2]graph.NodeID
	for round := 0; round < 4; round++ {
		ops := randomOps(rng, n, &added, 6)
		applyToStore(t, ref, ops)
		ref.Publish()
		if err := rt.Apply(context.Background(), ops); err != nil {
			t.Fatalf("round %d: a replicated write with one clean replica must succeed: %v", round, err)
		}
		if _, err := rt.PublishView(context.Background()); err != nil {
			t.Fatalf("round %d publish: %v", round, err)
		}
	}
	// Let the health/catch-up pass replay the flaky replica back in
	// (its own catch-up applies can fault too, so poll).
	deadline := time.Now().Add(15 * time.Second)
	for {
		_ = rt.CheckHealth(context.Background())
		allCurrent := true
		for _, ws := range rt.WorkerStats() {
			if !ws.Current {
				allCurrent = false
			}
		}
		if allCurrent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flaky replica never re-admitted: %+v", rt.WorkerStats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stA.LastBatch() != stB.LastBatch() {
		t.Fatalf("watermarks diverged: %d vs %d", stA.LastBatch(), stB.LastBatch())
	}
	if stA.NumEdges() != stB.NumEdges() || stA.NumEdges() != ref.NumEdges() {
		t.Fatalf("edges diverged: A=%d B=%d ref=%d", stA.NumEdges(), stB.NumEdges(), ref.NumEdges())
	}
	if _, err := rt.PublishView(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "converged", want, got, []graph.NodeID{0, 42, 199})
	if flaky.Injected() == 0 {
		t.Fatal("no write faults injected")
	}
}

// TestChaosProxyKillMidReply runs the faults on a real wire: one
// replica sits behind a chaos proxy that kills connections mid-reply,
// and a partition (Cut) takes it out entirely before Heal lets the
// health loop replay it back in. Every query must still answer
// bit-identically.
func TestChaosProxyKillMidReply(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets + chaos proxy")
	}
	const n = 300
	g := gen.PreferentialAttachment(n, 4, 19)
	ref := shard.NewStore(g, 4, 0)

	startWorker := func(st *shard.Store) (string, *router.Server) {
		le := router.NewLocalEngine(st, 0, 1)
		srv := router.NewServer(le)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return ln.Addr().String(), srv
	}
	stA, stB := shard.NewStore(g, 4, 0), shard.NewStore(g, 4, 0)
	addrA, _ := startWorker(stA)
	addrB, _ := startWorker(stB)
	// PKillMid 1 with a byte budget: EVERY connection through the proxy
	// dies mid-reply once it has relayed 8KB — deterministic regardless
	// of how the client pools connections, and guaranteed to land inside
	// the first query's shard-block reply.
	proxy, err := NewProxy(addrA, ProxyPlan{Seed: 5, PKillMid: 1, KillAfter: 8192})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	reA := router.NewRemoteEngine(proxy.Addr())
	reB := router.NewRemoteEngine(addrB)
	rt, err := router.NewReplicated([][]router.ShardEngine{{reA, reB}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })

	opt := testOptions()
	want := core.NewExecutorOn(ref, opt)
	got := core.NewExecutorOn(rt, opt)
	nodes := []graph.NodeID{0, 42, 299}
	assertIdentical(t, "mid-reply kills", want, got, nodes)
	if proxy.Injected() == 0 {
		t.Fatal("proxy injected nothing")
	}

	// Hard partition: replica A unreachable. Writes and reads continue
	// on B alone.
	proxy.Cut()
	_ = rt.CheckHealth(context.Background())
	ops := []graph.EdgeOp{{U: 1, V: 250}, {U: 3, V: 77}}
	applyToStore(t, ref, ops)
	ref.Publish()
	if err := rt.Apply(context.Background(), ops); err != nil {
		t.Fatalf("write during partition: %v", err)
	}
	if _, err := rt.PublishView(context.Background()); err != nil {
		t.Fatalf("publish during partition: %v", err)
	}
	assertIdentical(t, "partitioned", want, got, nodes[:2])

	// Heal: the health pass must replay A back to current.
	proxy.Heal()
	deadline := time.Now().Add(20 * time.Second)
	for {
		_ = rt.CheckHealth(context.Background())
		allCurrent := true
		for _, ws := range rt.WorkerStats() {
			if !ws.Current {
				allCurrent = false
			}
		}
		if allCurrent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-admitted after heal: %+v", rt.WorkerStats())
		}
		time.Sleep(50 * time.Millisecond)
	}
	assertIdentical(t, "healed", want, got, nodes[:2])
	if c := rt.Counters(); c.CatchupBatches == 0 {
		t.Fatalf("partition healed without ring replay: %+v", c)
	}
}
