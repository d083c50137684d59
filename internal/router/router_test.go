package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/rpcwire"
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

// applyToStore applies the same edge batch to a plain store (the
// reference) for comparison publishes.
func applyToStore(t *testing.T, st *shard.Store, ops []graph.EdgeOp) {
	t.Helper()
	if _, err := st.ApplyBatch(0, ops); err != nil {
		t.Fatalf("reference store: %v", err)
	}
}

// randomOps derives a deterministic churn batch that only removes edges
// it previously added, so reference and router stay applyable.
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
	le := NewLocalEngine(shard.NewStore(g, shards, 0), index, group)
	re, srv := serveEngine(t, le)
	return re, srv, le
}

// serveEngine serves eng over a real TCP socket and returns the remote
// engine talking to it.
func serveEngine(t *testing.T, eng ShardEngine) (*RemoteEngine, *Server) {
	t.Helper()
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	re := NewRemoteEngine(ln.Addr().String())
	t.Cleanup(func() { re.Close() })
	return re, srv
}

// TestBitIdenticalOverRPC is the acceptance property: the same graph,
// seed and query answered by the direct store and by a router talking to
// real probesim-shardd-style workers over TCP must agree bit for bit —
// across shard counts {1, 2, 7}, under churn, for the batched kernels
// (ModeAuto) and the per-walk ones (ModePruned).
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

	// The static pass left the view warm: a repeat calls no engine.
	calls := engineCalls(rt)
	assertIdentical(t, "warm", want, got, nodes[:1])
	if d := engineCalls(rt) - calls; d != 0 {
		t.Fatalf("warm repeat made %d engine calls", d)
	}

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
	if c.ShardFetches == 0 || c.ShardBatches == 0 {
		t.Fatalf("no batched shard materialization: %+v", c)
	}
}

// engineCalls is every request the router's remote engines have sent.
func engineCalls(rt *Router) int64 {
	var n int64
	for _, ws := range rt.WorkerStats() {
		n += ws.Calls
	}
	return n
}

// TestBatchingCollapsesRoundTrips pins the routed read plane's round
// trips over two TCP workers: a cold query fetches every shard block it
// lacks in one request frame per owner group before its first walk step,
// and a warm repeat on the same view sends none.
func TestBatchingCollapsesRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	const shards = 7
	g := testGraph(400, 5)
	reA, srvA, _ := startWorker(t, g, shards, 0, 2)
	reB, srvB, _ := startWorker(t, g, shards, 1, 2)
	rt, err := New(reA, reB)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutorOn(rt, testOptions(core.ModeAuto))
	for _, pass := range []struct {
		name   string
		frames [2]int64
	}{{"cold", [2]int64{1, 1}}, {"warm", [2]int64{0, 0}}} {
		a0, b0 := srvA.Requests(), srvB.Requests()
		if _, err := ex.SingleSource(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if got := [2]int64{srvA.Requests() - a0, srvB.Requests() - b0}; got != pass.frames {
			t.Fatalf("%s query sent %v request frames to the two groups, want %v", pass.name, got, pass.frames)
		}
	}
}

// versionlessEngine is a worker that predates shard versions: its Meta
// and Publish replies report none, so a router must fetch every block it
// owns on every generation.
type versionlessEngine struct{ ShardEngine }

func (e versionlessEngine) Meta(ctx context.Context) (Meta, error) {
	m, err := e.ShardEngine.Meta(ctx)
	m.ShardVersions = nil
	return m, err
}

func (e versionlessEngine) Publish(ctx context.Context) (Meta, error) {
	m, err := e.ShardEngine.Publish(ctx)
	m.ShardVersions = nil
	return m, err
}

// churnFleet is a router over two TCP workers on 64-shard stores of one
// PA graph next to an in-process reference store, for pinning what each
// write costs the next read.
type churnFleet struct {
	rt        *Router
	ref       *shard.Store
	owners    [2]*LocalEngine
	want, got *core.Executor
}

func newChurnFleet(t *testing.T, versioned [2]bool) *churnFleet {
	t.Helper()
	g := testGraph(2000, 21)
	f := &churnFleet{ref: shard.NewStore(g, 64, 0)}
	var engines []ShardEngine
	for i := range f.owners {
		f.owners[i] = NewLocalEngine(shard.NewStore(g, 64, 0), i, 2)
		var eng ShardEngine = f.owners[i]
		if !versioned[i] {
			eng = versionlessEngine{eng}
		}
		re, _ := serveEngine(t, eng)
		engines = append(engines, re)
	}
	rt, err := New(engines...)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	opt := testOptions(core.ModeAuto)
	f.want = core.NewExecutorOn(f.ref, opt)
	f.got = core.NewExecutorOn(rt, opt)
	return f
}

// round sends ops through the router and the reference, republishes,
// and runs one query on the new generation, requiring bit-identical
// answers. It returns the shard blocks that query fetched and the number
// of each worker's owned shards whose version the batch moved.
func (f *churnFleet) round(t *testing.T, tag string, ops []graph.EdgeOp, rejected bool) (fetched int64, moved [2]int) {
	t.Helper()
	ctx := context.Background()
	var before [2]*shard.StoreSnapshot
	for i, le := range f.owners {
		before[i] = le.Store().Current()
	}
	fetches := f.rt.Counters().ShardFetches
	if _, err := f.ref.ApplyBatch(0, ops); (err != nil) != rejected {
		t.Fatalf("%s: reference apply: %v (rejection expected: %v)", tag, err, rejected)
	}
	f.ref.Publish()
	if err := f.rt.Apply(ctx, ops); (err != nil) != rejected {
		t.Fatalf("%s: routed apply: %v (rejection expected: %v)", tag, err, rejected)
	}
	if _, err := f.rt.PublishView(ctx); err != nil {
		t.Fatalf("%s: publish: %v", tag, err)
	}
	assertIdentical(t, tag, f.want, f.got, []graph.NodeID{0})
	for i, le := range f.owners {
		cur := le.Store().Current()
		for p := i; p < cur.NumShards(); p += 2 {
			if cur.ShardVersion(p) != before[i].ShardVersion(p) {
				moved[i]++
			}
		}
	}
	return f.rt.Counters().ShardFetches - fetches, moved
}

// TestWriteRefetchesOnlyMovedShards pins what a write costs the next
// routed read: the first query on the new generation fetches exactly the
// shards whose version the batch moved on their owning workers, and
// carries every other block over from the previous view. A semantically
// rejected batch moves its shards' versions too (the store's undo of each
// op it applied touches the same sides again), so those blocks are
// refetched. Answers stay
// bit-identical to an in-process store that took the same ops.
func TestWriteRefetchesOnlyMovedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	f := newChurnFleet(t, [2]bool{true, true})
	shards := f.ref.Current().NumShards()
	assertIdentical(t, "static", f.want, f.got, []graph.NodeID{0, 42, 1999})

	check := func(tag string, ops []graph.EdgeOp, rejected bool) {
		t.Helper()
		carried := f.rt.Counters().ShardBlocksCarried
		fetched, moved := f.round(t, tag, ops, rejected)
		mv := moved[0] + moved[1]
		if mv == 0 || mv >= shards {
			t.Fatalf("%s: the batch moved %d of %d shards; the test needs some but not all", tag, mv, shards)
		}
		if fetched != int64(mv) {
			t.Fatalf("%s: the next read fetched %d shard blocks, want the %d the batch moved (of %d)", tag, fetched, mv, shards)
		}
		if d := f.rt.Counters().ShardBlocksCarried - carried; d != int64(shards-mv) {
			t.Fatalf("%s: %d blocks carried, want %d", tag, d, shards-mv)
		}
	}
	rng := xrand.New(5)
	var added [][2]graph.NodeID
	for round := 0; round < 3; round++ {
		check(fmt.Sprintf("churn-%d", round), randomOps(rng, 2000, &added, 4), false)
	}
	// A valid add followed by the removal of an edge that does not
	// exist: every worker rejects the batch and rolls the add back.
	check("rollback", []graph.EdgeOp{{U: 1500, V: 7}, {Remove: true, U: 1999, V: 1998}}, true)
}

// TestVersionlessWorkerRefetchesEveryBlock: in a fleet where one worker
// predates shard versions, the router fetches all of that worker's
// blocks on every generation, and still only the moved ones of the
// worker that reports versions. Answers stay bit-identical either way.
func TestVersionlessWorkerRefetchesEveryBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	f := newChurnFleet(t, [2]bool{false, true})
	assertIdentical(t, "static", f.want, f.got, []graph.NodeID{0, 42, 1999})
	ownedByOld := len(f.owners[0].meta(f.owners[0].Store().Current()).Owned)
	rng := xrand.New(6)
	var added [][2]graph.NodeID
	for round := 0; round < 3; round++ {
		tag := fmt.Sprintf("churn-%d", round)
		fetched, moved := f.round(t, tag, randomOps(rng, 2000, &added, 4), false)
		if want := int64(ownedByOld + moved[1]); fetched != want {
			t.Fatalf("%s: the next read fetched %d blocks, want all %d of the versionless worker's plus the %d moved on the other", tag, fetched, ownedByOld, moved[1])
		}
	}
}

// TestInheritRule pins when a new view generation may carry a block
// over: only for a shard both generations report at the same version,
// never across a change of stride or shard count, and never a block the
// previous view had not fetched.
func TestInheritRule(t *testing.T) {
	blk := &graph.CSRShard{InOff: []uint32{0, 0}, OutOff: []uint32{0, 0}}
	view := func(shift uint32, versions ...int64) *View {
		v := &View{shift: shift, blocks: make([]blockSlot, len(versions))}
		for p, ver := range versions {
			if ver >= 0 {
				v.blocks[p].version, v.blocks[p].versioned = uint64(ver), true
			}
		}
		return v
	}
	prev := view(4, 1, 2, 3, -1, 5)
	for p := range prev.blocks {
		if p != 4 {
			prev.blocks[p].ptr.Store(blk)
		}
	}
	for _, c := range []struct {
		name    string
		next    *View
		carried []int
	}{
		{"same versions", view(4, 1, 2, 3, -1, 5), []int{0, 1, 2}},
		{"moved shard", view(4, 1, 9, 3, -1, 5), []int{0, 2}},
		{"unversioned now", view(4, -1, 2, 3, -1, 5), []int{1, 2}},
		{"stride changed", view(5, 1, 2, 3, -1, 5), nil},
		{"shard count changed", view(4, 1, 2, 3, -1), nil},
	} {
		if got := c.next.inherit(prev); got != len(c.carried) {
			t.Fatalf("%s: carried %d blocks, want %d", c.name, got, len(c.carried))
		}
		for _, p := range c.carried {
			if c.next.blocks[p].ptr.Load() != blk {
				t.Fatalf("%s: shard %d not carried", c.name, p)
			}
		}
	}
	if got := view(4, 1).inherit(nil); got != 0 {
		t.Fatalf("a first generation carried %d blocks", got)
	}
}

// failingEngine wraps an engine and fails every fetch after the fuse
// burns: the deterministic stand-in for a worker crashing. It counts the
// fetches it received.
type failingEngine struct {
	*LocalEngine
	fuse  atomic.Int64 // calls left before the crash; queries call concurrently
	calls atomic.Int64
}

func (f *failingEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	f.calls.Add(1)
	if f.fuse.Add(-1) < 0 {
		return nil, fmt.Errorf("%w: injected crash", ErrTransport)
	}
	return f.LocalEngine.ResolveShards(ctx, version, ps)
}

// TestEngineFailureMidQuery proves the failed-fetch contract on the
// deterministic in-process path: when an engine fails the query's fetch,
// the query returns promptly with an error chain that unwraps to
// ErrTransport.
func TestEngineFailureMidQuery(t *testing.T) {
	g := testGraph(500, 11)
	stA := shard.NewStore(g, 7, 0)
	stB := shard.NewStore(g, 7, 0)
	fe := &failingEngine{LocalEngine: NewLocalEngine(stB, 1, 2)}
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

// TestFailedFetchStopsEngineCalls: a query whose bulk fetch fails makes
// that one attempt and no more — it fails before any kernel runs — in
// the batched and the per-walk kernels alike, and the router counts the
// failure under its cause.
func TestFailedFetchStopsEngineCalls(t *testing.T) {
	g := testGraph(500, 11)
	for _, mode := range []core.Mode{core.ModeAuto, core.ModePruned} {
		t.Run(fmt.Sprintf("mode=%v", mode), func(t *testing.T) {
			fe := &failingEngine{LocalEngine: NewLocalEngine(shard.NewStore(g, 7, 0), 1, 2)}
			rt, err := New(NewLocalEngine(shard.NewStore(g, 7, 0), 0, 2), fe)
			if err != nil {
				t.Fatal(err)
			}
			ex := core.NewExecutorOn(rt, testOptions(mode))
			for q := int64(1); q <= 2; q++ {
				if _, err := ex.SingleSource(context.Background(), 3); !errors.Is(err, ErrTransport) {
					t.Fatalf("query %d: want ErrTransport in chain, got %v", q, err)
				}
				if got := fe.calls.Load(); got != q {
					t.Fatalf("after %d queries the failing engine got %d calls, want %d", q, got, q)
				}
			}
			if fe := rt.Counters().ShardFetchErrors; fe.Transport != 2 || fe.Total() != 2 {
				t.Fatalf("fetch errors by cause %+v, want 2 transport", fe)
			}
		})
	}
}

// The kernels find a routed view's snapshot through this interface; a
// View that stopped implementing it would run every query over per-node
// interface calls instead.
var _ core.QueryBinder = (*View)(nil)

// TestViewBindsOneSnapshotPerGeneration: every query on a routed
// generation binds to the same assembled *shard.StoreSnapshot.
// Concurrent first binds share one fetch, one engine call per owner
// group; a later bind makes no engine call.
func TestViewBindsOneSnapshotPerGeneration(t *testing.T) {
	g := testGraph(300, 7)
	var engines [2]*failingEngine
	for i := range engines {
		engines[i] = &failingEngine{LocalEngine: NewLocalEngine(shard.NewStore(g, 8, 0), i, 2)}
		engines[i].fuse.Store(1 << 40)
	}
	rt, err := New(engines[0], engines[1])
	if err != nil {
		t.Fatal(err)
	}
	calls := func() int64 { return engines[0].calls.Load() + engines[1].calls.Load() }
	v := rt.PublishedView().(*View)
	binds := make([]graph.View, 4)
	errs := make([]error, len(binds))
	var wg sync.WaitGroup
	for i := range binds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			binds[i], errs[i] = v.BindQuery(context.Background())
		}(i)
	}
	wg.Wait()
	if got := calls(); got != 2 {
		t.Fatalf("the first binds made %d engine calls, want one per group", got)
	}
	later, err := v.BindQuery(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := calls(); got != 2 {
		t.Fatalf("a later bind made %d more engine calls", got-2)
	}
	snap, ok := later.(*shard.StoreSnapshot)
	if !ok {
		t.Fatalf("bind returned %T, want *shard.StoreSnapshot", later)
	}
	for i, b := range binds {
		if errs[i] != nil || b != later {
			t.Fatalf("bind %d returned %p (%v), want the one snapshot %p", i, b, errs[i], snap)
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.Version() != v.Version() || snap.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot at version %d with %d edges, want %d and %d", snap.Version(), snap.NumEdges(), v.Version(), g.NumEdges())
	}
}

// truncatingEngine serves blocks whose in-offset array is cut to half its
// length: the malformed reply of a buggy or corrupted worker.
type truncatingEngine struct{ *LocalEngine }

func (e truncatingEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	csrs, err := e.LocalEngine.ResolveShards(ctx, version, ps)
	for i := range csrs {
		csrs[i].InOff = csrs[i].InOff[:len(csrs[i].InOff)/2]
	}
	return csrs, err
}

// TestMalformedBlockFailsQuery: a worker's block whose offsets do not fit
// its shard fails the query with an error, counted as a fetch error of
// cause "other", instead of panicking a kernel worker (and with it the
// routing process).
func TestMalformedBlockFailsQuery(t *testing.T) {
	g := testGraph(500, 11)
	rt, err := New(NewLocalEngine(shard.NewStore(g, 7, 0), 0, 2),
		truncatingEngine{NewLocalEngine(shard.NewStore(g, 7, 0), 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutorOn(rt, testOptions(core.ModeAuto))
	if _, err := ex.SingleSource(context.Background(), 3); err == nil {
		t.Fatal("query over a malformed block must error")
	}
	if fe := rt.Counters().ShardFetchErrors; fe.Other != 1 || fe.Total() != 1 {
		t.Fatalf("fetch errors by cause %+v, want 1 other", fe)
	}
}

// shardHidingEngine reports one shard fewer than its store holds, the
// last one: the shape of a worker that under-reports its shard set.
type shardHidingEngine struct{ *LocalEngine }

func (e shardHidingEngine) hide(m Meta, err error) (Meta, error) {
	m.Shards--
	if n := len(m.Owned); n > 0 && m.Owned[n-1] == m.Shards {
		m.Owned, m.ShardVersions = m.Owned[:n-1], m.ShardVersions[:n-1]
	}
	return m, err
}

func (e shardHidingEngine) Meta(ctx context.Context) (Meta, error) {
	return e.hide(e.LocalEngine.Meta(ctx))
}

func (e shardHidingEngine) Publish(ctx context.Context) (Meta, error) {
	return e.hide(e.LocalEngine.Publish(ctx))
}

// TestAssemblyRejectsUncoveredNodes: a fleet whose agreed shard count
// does not cover its node count at its stride is refused at assembly.
// Accepted, the view's first query to reach a node past the last shard
// would index out of range in a kernel worker and kill the process.
func TestAssemblyRejectsUncoveredNodes(t *testing.T) {
	g := testGraph(500, 11)
	_, err := New(shardHidingEngine{NewLocalEngine(shard.NewStore(g, 4, 0), 0, 2)},
		shardHidingEngine{NewLocalEngine(shard.NewStore(g, 4, 0), 1, 2)})
	if err == nil || !strings.Contains(err.Error(), "3 shards of stride 1<<7 for 500 nodes") {
		t.Fatalf("assembly over a fleet hiding its last shard: %v", err)
	}
}

// TestWorkerKilledMidQuery is the socket-level acceptance criterion: a
// query against a router whose worker died after assembly returns a
// wrapped transport error well within the query deadline, instead of
// hanging.
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
	opt.NumWalks = 500000 // a query that would run for seconds over live workers
	opt.Budget.Timeout = 30 * time.Second
	ex := core.NewExecutorOn(rt, opt)
	srvB.Close() // kill the worker before the query's fetch meets it

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

// TestRetiredFrameTypeGetsBadRequest: a router that predates the retired
// walk-batch frame (type 12) gets the unknown-type error reply from a
// current worker — never a hang or a dropped connection — and the
// connection keeps serving.
func TestRetiredFrameTypeGetsBadRequest(t *testing.T) {
	st := shard.NewStore(testGraph(100, 3), 4, 0)
	srv := NewServer(NewLocalEngine(st, 0, 1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	exchange := func(typ uint8) (uint8, []byte) {
		t.Helper()
		if err := rpcwire.WriteFrame(c, typ, rpcwire.PingRequest{}.Append(nil)); err != nil {
			t.Fatal(err)
		}
		rtyp, body, err := rpcwire.ReadFrame(c, nil)
		if err != nil {
			t.Fatalf("frame type %d: %v", typ, err)
		}
		return rtyp, body
	}
	rtyp, body := exchange(12)
	rep, err := rpcwire.DecodeErrorReply(body)
	if rtyp != rpcwire.TErr || err != nil || rep.Code != rpcwire.CodeBadRequest {
		t.Fatalf("retired frame: reply type %d, %+v (%v), want CodeBadRequest", rtyp, rep, err)
	}
	if rtyp, _ := exchange(rpcwire.TPing); rtyp != rpcwire.TPingRep {
		t.Fatalf("ping after the retired frame: reply type %d", rtyp)
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
	// Through a router the same cut-short fetch counts as a deadline.
	rt, err := New(re)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.PublishedView().(*View).BindQuery(ctx)
	if fe := rt.Counters().ShardFetchErrors; !errors.Is(err, context.DeadlineExceeded) || fe.Deadline != 1 || fe.Total() != 1 {
		t.Fatalf("caller deadline counted as %+v", fe)
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
		if err := rt.Apply(context.Background(), []graph.EdgeOp{{U: u, V: v}}); err != nil {
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
	_, err = core.SingleSource(context.Background(), old, 2, opt)
	if err == nil {
		t.Skip("old generation still resolvable (all its shards retained)")
	}
	if !errors.Is(err, ErrRetiredGeneration) {
		t.Fatalf("want ErrRetiredGeneration, got %v", err)
	}
	if fe := rt.Counters().ShardFetchErrors; fe.Retired == 0 || fe.Retired != fe.Total() {
		t.Fatalf("retired generation counted as %+v", fe)
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
	ops := []graph.EdgeOp{
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
