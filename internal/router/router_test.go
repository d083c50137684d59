package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"probesim/internal/budget"
	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// testOptions keeps the property tests fast while exercising the batched
// (ModeAuto) kernels: the walk count is overridden, determinism is not.
func testOptions(mode core.Mode) core.Options {
	return core.Options{Mode: mode, Seed: 7, NumWalks: 300}
}

func testGraph(n int, seed uint64) *graph.Graph {
	g := gen.PreferentialAttachment(n, 4, seed)
	return g
}

// mirrorOps applies the same edge batch to a plain store (the reference)
// and returns it for comparison publishes.
func applyToStore(t *testing.T, st *shard.Store, ops []Op) {
	t.Helper()
	for _, op := range ops {
		var err error
		if op.Remove {
			err = st.RemoveEdge(op.U, op.V)
		} else {
			err = st.AddEdge(op.U, op.V)
		}
		if err != nil {
			t.Fatalf("reference store: %v", err)
		}
	}
}

// randomOps derives a deterministic churn batch that only removes edges
// it previously added, so reference and router stay applyable.
func randomOps(rng *xrand.RNG, n int, added *[][2]graph.NodeID, count int) []Op {
	ops := make([]Op, 0, count)
	for len(ops) < count {
		if len(*added) > 0 && rng.Float64() < 0.3 {
			i := rng.Intn(len(*added))
			e := (*added)[i]
			(*added)[i] = (*added)[len(*added)-1]
			*added = (*added)[:len(*added)-1]
			ops = append(ops, Op{Remove: true, U: e[0], V: e[1]})
			continue
		}
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		ops = append(ops, Op{U: u, V: v})
		*added = append(*added, [2]graph.NodeID{u, v})
	}
	return ops
}

// assertIdentical runs single-source and top-k queries on both executors
// and requires bit-identical results.
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
			t.Fatalf("%s: routed query %d: %v", tag, u, err)
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
			t.Fatalf("%s: routed top-k %d: %v", tag, u, err)
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

func TestLocalFastPathServesStoreSnapshot(t *testing.T) {
	st := shard.NewStore(testGraph(200, 1), 4, 0)
	rt := NewLocal(st)
	if rt.Distributed() {
		t.Fatal("single local engine should use the fast path")
	}
	if rt.PublishedView() != graph.VersionedView(st.Current()) {
		t.Fatal("fast path must serve the store's own snapshot")
	}
}

// TestBitIdenticalLocalEngines drives the generic router path with two
// in-process engines splitting shard ownership, against the direct store:
// every kernel result must be bit-identical, across shard counts and
// under churn.
func TestBitIdenticalLocalEngines(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		for _, mode := range []core.Mode{core.ModeAuto, core.ModePruned} {
			t.Run(fmt.Sprintf("shards=%d/mode=%v", shards, mode), func(t *testing.T) {
				g := testGraph(500, 3)
				ref := shard.NewStore(g, shards, 0)
				stA := shard.NewStore(g, shards, 0)
				stB := shard.NewStore(g, shards, 0)
				rt, err := New(NewLocalEngine(stA, 0, 2), NewLocalEngine(stB, 1, 2))
				if err != nil {
					t.Fatal(err)
				}
				if !rt.Distributed() {
					t.Fatal("two engines must use the generic path")
				}
				opt := testOptions(mode)
				want := core.NewExecutorOn(ref, opt)
				got := core.NewExecutorOn(rt, opt)
				nodes := []graph.NodeID{0, 7, 131, 499}
				assertIdentical(t, "static", want, got, nodes)

				// Churn: apply identical batches to the reference and through
				// the router, republish, re-verify.
				rng := xrand.New(99)
				var added [][2]graph.NodeID
				for round := 0; round < 3; round++ {
					ops := randomOps(rng, 500, &added, 20)
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
			})
		}
	}
}

// startWorker serves a fresh store over a real TCP socket and returns the
// remote engine plus the serving stack for fault injection.
func startWorker(t *testing.T, g *graph.Graph, shards, index, group int) (*RemoteEngine, *Server, *LocalEngine) {
	t.Helper()
	st := shard.NewStore(g, shards, 0)
	le := NewLocalEngine(st, index, group)
	srv := NewServer(le)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	re := NewRemoteEngine(ln.Addr().String())
	t.Cleanup(func() { re.Close() })
	return re, srv, le
}

// TestBitIdenticalOverRPC is the acceptance property: the same graph,
// seed and query answered by the direct store and by a router talking to
// real probesim-shardd-style workers over TCP must agree bit for bit —
// across shard counts {1, 2, 7}, under churn, for the batched kernels
// (ModeAuto, whole waves of walks per exchange) and the per-walk ones
// (ModePruned, each walk stepped as a one-walk batch).
func TestBitIdenticalOverRPC(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets + many RPC round trips")
	}
	for _, shards := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, mode := range []core.Mode{core.ModeAuto, core.ModePruned} {
				t.Run(fmt.Sprintf("mode=%v", mode), func(t *testing.T) {
					checkIdenticalOverRPC(t, shards, mode)
				})
			}
		})
	}
}

func checkIdenticalOverRPC(t *testing.T, shards int, mode core.Mode) {
	g := testGraph(400, 5)
	ref := shard.NewStore(g, shards, 0)
	reA, _, _ := startWorker(t, g, shards, 0, 2)
	reB, _, _ := startWorker(t, g, shards, 1, 2)
	rt, err := New(reA, reB)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(mode)
	want := core.NewExecutorOn(ref, opt)
	got := core.NewExecutorOn(rt, opt)
	nodes := []graph.NodeID{0, 42, 399}
	assertIdentical(t, "static", want, got, nodes)

	rng := xrand.New(17)
	var added [][2]graph.NodeID
	for round := 0; round < 2; round++ {
		ops := randomOps(rng, 400, &added, 12)
		applyToStore(t, ref, ops)
		ref.Publish()
		if err := rt.Apply(context.Background(), ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := rt.PublishView(context.Background()); err != nil {
			t.Fatalf("round %d publish: %v", round, err)
		}
		assertIdentical(t, fmt.Sprintf("churn-%d", round), want, got, nodes[:1])
	}
	if err := rt.CheckHealth(context.Background()); err != nil {
		t.Fatalf("health: %v", err)
	}
	for _, ws := range rt.WorkerStats() {
		if !ws.Healthy || ws.Calls == 0 {
			t.Fatalf("worker stats: %+v", ws)
		}
	}
	c := rt.Counters()
	if c.ShardFetches == 0 || c.WalkBatches == 0 || c.WalkDelegated == 0 {
		t.Fatalf("counters did not move: %+v", c)
	}
	if c.WalkLocalSegments == 0 {
		t.Fatalf("router stepped no walks over cached blocks: %+v", c)
	}
	if c.ShardBatches == 0 {
		t.Fatalf("no batched shard materialization: %+v", c)
	}
	// Per-walk kernels delegate only until the first trial's probes
	// materialize every block, too few walks to count on a handoff.
	if mode == core.ModeAuto && shards >= 2 && c.WalkHandoffs == 0 {
		t.Fatalf("expected cross-engine walk handoffs with %d shards: %+v", shards, c)
	}
}

// TestBatchingCollapsesRoundTrips is the acceptance counter: one cold
// single-source query over real TCP workers costs several-fold fewer
// request frames than one frame per delegated walk segment and per
// fetched shard block — the per-item count the router's WalkDelegated
// and ShardFetches counters record.
func TestBatchingCollapsesRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets + many RPC round trips")
	}
	const shards = 7
	g := testGraph(400, 5)
	reA, srvA, _ := startWorker(t, g, shards, 0, 2)
	reB, srvB, _ := startWorker(t, g, shards, 1, 2)
	rt, err := New(reA, reB)
	if err != nil {
		t.Fatal(err)
	}
	before, c0 := srvA.Requests()+srvB.Requests(), rt.Counters()
	if _, err := core.NewExecutorOn(rt, testOptions(core.ModeAuto)).SingleSource(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	frames := srvA.Requests() + srvB.Requests() - before
	c := rt.Counters()
	perItem := c.WalkDelegated - c0.WalkDelegated + c.ShardFetches - c0.ShardFetches
	t.Logf("request frames for one cold single-source query: %d batched, %d at one per walk segment and shard block (%.1fx)",
		frames, perItem, float64(perItem)/float64(frames))
	if frames*3 > perItem {
		t.Fatalf("batching saved too little: %d frames batched vs %d per-item", frames, perItem)
	}
}

// failingEngine wraps an engine and fails every call after the fuse
// burns: the deterministic stand-in for a worker crashing mid-query.
type failingEngine struct {
	*LocalEngine
	fuse atomic.Int64 // calls left before the crash; queries call concurrently
}

func (f *failingEngine) burnt() bool { return f.fuse.Add(-1) < 0 }

func (f *failingEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	if f.burnt() {
		return nil, fmt.Errorf("%w: injected crash", ErrTransport)
	}
	return f.LocalEngine.ResolveShards(ctx, version, ps)
}

func (f *failingEngine) WalkBatch(ctx context.Context, version uint64, h budget.Header, sqrtC float64, walks []WalkStart) ([]WalkResult, error) {
	if f.burnt() {
		return nil, fmt.Errorf("%w: injected crash", ErrTransport)
	}
	return f.LocalEngine.WalkBatch(ctx, version, h, sqrtC, walks)
}

// TestEngineFailureMidQuery proves the partial-result-with-error
// contract on the deterministic in-process path: once an engine starts
// failing, the query returns promptly with an error chain that unwraps
// to ErrTransport.
func TestEngineFailureMidQuery(t *testing.T) {
	g := testGraph(500, 11)
	stA := shard.NewStore(g, 7, 0)
	stB := shard.NewStore(g, 7, 0)
	fe := &failingEngine{LocalEngine: NewLocalEngine(stB, 1, 2)}
	fe.fuse.Store(1)
	rt, err := New(NewLocalEngine(stA, 0, 2), fe)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutorOn(rt, testOptions(core.ModeAuto))
	_, err = ex.SingleSource(context.Background(), 3)
	if err == nil {
		t.Fatal("query over a failing engine must error")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("error chain must unwrap to ErrTransport, got %v", err)
	}
}

// TestWorkerKilledMidQuery is the socket-level acceptance criterion: a
// query against a router whose worker dies mid-flight returns a wrapped
// transport error well within the query deadline, instead of hanging.
func TestWorkerKilledMidQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	g := testGraph(600, 13)
	ref := shard.NewStore(g, 4, 0) // local engine serving half the shards
	reB, srvB, _ := startWorker(t, g, 4, 1, 2)
	rt, err := New(NewLocalEngine(ref, 0, 2), reB)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(core.ModeAuto)
	opt.NumWalks = 500000 // long enough that the kill lands mid-query
	opt.Budget.Timeout = 30 * time.Second
	ex := core.NewExecutorOn(rt, opt)

	type result struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		_, err := ex.SingleSource(context.Background(), 1)
		done <- result{err, time.Since(start)}
	}()
	time.Sleep(50 * time.Millisecond)
	srvB.Close() // kill the worker mid-query

	select {
	case res := <-done:
		if res.err == nil {
			t.Fatal("query must fail after its worker died")
		}
		if !errors.Is(res.err, ErrTransport) {
			t.Fatalf("want ErrTransport in chain, got %v", res.err)
		}
		if res.elapsed > 10*time.Second {
			t.Fatalf("query took %v to notice the dead worker", res.elapsed)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("query hung after its worker died")
	}
}

// TestDeadlinePropagationStopsRemoteWalkLoop is the second acceptance
// criterion: a budget deadline propagated in the request header stops the
// walk loop on the worker itself (observed via the engine's
// segments-stopped counter), not just on the router.
func TestDeadlinePropagationStopsRemoteWalkLoop(t *testing.T) {
	g := gen.Cycle(512) // walks on a cycle only end by survival draw or budget
	re, _, le := startWorker(t, g, 4, 0, 1)
	meta, err := re.Meta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	walks := []WalkStart{{Cur: 5, State: 42, Room: 95}}
	h := budget.Header{Remaining: time.Nanosecond} // expired before arrival
	res, err := re.WalkBatch(context.Background(), meta.Version, h, 0.9999, walks)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != SegmentStopped {
		t.Fatalf("want SegmentStopped, got %d with %d nodes", res[0].Status, len(res[0].Nodes))
	}
	if got := le.SegmentsStopped(); got == 0 {
		t.Fatal("worker-side stopped-segment counter did not move")
	}
	// Control: the same walk with a live budget runs.
	h = budget.Header{Remaining: time.Minute}
	res, err = re.WalkBatch(context.Background(), meta.Version, h, 0.9999, walks)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != SegmentEnded || len(res[0].Nodes) == 0 {
		t.Fatalf("control walk: status %d, %d nodes", res[0].Status, len(res[0].Nodes))
	}
}

// TestCallerDeadlineNotBlamedOnWorker: a call cut short by the CALLER's
// context must classify as the context's error (504/499 upstream), not
// as a worker transport failure — and must not mark the healthy worker
// down or open its backoff window.
func TestCallerDeadlineNotBlamedOnWorker(t *testing.T) {
	g := testGraph(100, 61)
	re, _, _ := startWorker(t, g, 4, 0, 1)
	meta, err := re.Meta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err = re.ResolveShards(ctx, meta.Version, []int{0})
	if err == nil {
		t.Fatal("expired context must fail the call")
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("caller's deadline misclassified as worker transport failure: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
	if !re.Healthy() {
		t.Fatal("healthy worker marked down by a caller's deadline")
	}
	if _, err := re.ResolveShards(context.Background(), meta.Version, []int{0}); err != nil {
		t.Fatalf("worker unusable after a caller timeout (backoff wrongly opened): %v", err)
	}
}

// TestQueryDeadlineOverRouter: an end-to-end expired deadline over the
// generic path surfaces as context.DeadlineExceeded with a partial
// result, exactly like the in-process path.
func TestQueryDeadlineOverRouter(t *testing.T) {
	g := testGraph(400, 23)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	rt, err := New(NewLocalEngine(stA, 0, 2), NewLocalEngine(stB, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(core.ModeAuto)
	opt.NumWalks = 2000000
	ex := core.NewExecutorOn(rt, opt)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ex.SingleSource(ctx, 1)
	if err == nil {
		t.Fatal("want deadline error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline honored after %v", el)
	}
}

// TestGenerationRetirement: a view older than the engines' retention ring
// fails cleanly with ErrRetiredGeneration instead of reading a torn mix
// of generations.
func TestGenerationRetirement(t *testing.T) {
	g := testGraph(300, 31)
	stA := shard.NewStore(g, 8, 0)
	stB := shard.NewStore(g, 8, 0)
	rt, err := New(NewLocalEngine(stA, 0, 2), NewLocalEngine(stB, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	old := rt.PublishedView()
	// Publish well past the retention ring. Touch a DIFFERENT node's shard
	// each round so every shard the old view later asks for was re-encoded.
	for i := 0; i < 3*genRetain; i++ {
		u := graph.NodeID(i % 300)
		v := graph.NodeID((i + 7) % 300)
		if u == v {
			continue
		}
		if err := rt.Apply(context.Background(), []Op{{U: u, V: v}}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.PublishView(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	opt := testOptions(core.ModeAuto)
	ex := core.NewExecutorOn(rt, opt)
	// Fresh view still works.
	if _, err := ex.SingleSource(context.Background(), 2); err != nil {
		t.Fatalf("current view: %v", err)
	}
	// The old view's blocks were never fetched; fetching now must fail
	// with the retirement error through the core error chain.
	_, err = ex.SingleSourceOn(context.Background(), old, 2)
	if err == nil {
		t.Skip("old generation still resolvable (all its shards retained)")
	}
	if !errors.Is(err, ErrRetiredGeneration) {
		t.Fatalf("want ErrRetiredGeneration, got %v", err)
	}
}

// TestApplyRollback: a failing batch leaves every engine untouched.
func TestApplyRollback(t *testing.T) {
	g := testGraph(100, 41)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	rt, err := New(NewLocalEngine(stA, 0, 2), NewLocalEngine(stB, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	edgesBefore := stA.NumEdges()
	ops := []Op{
		{U: 1, V: 2},
		{U: 3, V: 4},
		{Remove: true, U: 98, V: 97}, // almost certainly absent
	}
	if stErr := rt.Apply(context.Background(), ops); stErr == nil {
		t.Skip("edge 98->97 existed; batch applied cleanly")
	}
	if stA.NumEdges() != edgesBefore || stB.NumEdges() != edgesBefore {
		t.Fatalf("rollback left edge counts %d/%d, want %d", stA.NumEdges(), stB.NumEdges(), edgesBefore)
	}
	if err := stA.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := stB.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestProgressiveIdenticalOverRouter covers the progressive top-k kernel
// over the generic path.
func TestProgressiveIdenticalOverRouter(t *testing.T) {
	g := testGraph(400, 53)
	ref := shard.NewStore(g, 4, 0)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	rt, err := New(NewLocalEngine(stA, 0, 2), NewLocalEngine(stB, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(core.ModePruned)
	want, wantStats, err := core.TopKProgressive(context.Background(), ref.Current(), 9, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := core.TopKProgressive(context.Background(), rt.PublishedView(), 9, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats != gotStats {
		t.Fatalf("stats %+v vs %+v", wantStats, gotStats)
	}
	if len(want) != len(got) {
		t.Fatalf("lengths %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, want[i], got[i])
		}
	}
}
