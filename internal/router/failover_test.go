package router

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// slowReadEngine delays the data plane by a fixed amount — a replica on
// a congested box, not a dead one.
type slowReadEngine struct {
	*LocalEngine
	delay time.Duration
}

func (s *slowReadEngine) stall(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(s.delay):
		return nil
	}
}

func (s *slowReadEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	if err := s.stall(ctx); err != nil {
		return nil, err
	}
	return s.LocalEngine.ResolveShards(ctx, version, ps)
}

// startEngineWorker serves an arbitrary engine over TCP and returns the
// address plus a shutdown func (startWorker always wraps a fresh store).
func startEngineWorker(t *testing.T, eng ShardEngine) (string, func()) {
	t.Helper()
	srv := NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	stop := func() { srv.Close() }
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (plus slack for pooled-connection handlers), dumping stacks
// on timeout so a leak is diagnosable.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines never settled: %d > %d+%d\n%s", n, base, slack, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHedgedReadWinsAndCancelsLoser is the hedging contract over a real
// wire: with one slow replica, the p99-derived hedge races the fast one,
// the fast answer wins bit-identically, and the canceled loser neither
// leaks goroutines nor returns a context-fired connection to the pool
// (later queries on the same engines still work).
func TestHedgedReadWinsAndCancelsLoser(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	g := testGraph(300, 3)
	ref := shard.NewStore(g, 4, 0)
	stSlow := shard.NewStore(g, 4, 0)
	stFast := shard.NewStore(g, 4, 0)

	addrSlow, _ := startEngineWorker(t, &slowReadEngine{NewLocalEngine(stSlow), 40 * time.Millisecond})
	addrFast, _ := startEngineWorker(t, NewLocalEngine(stFast))
	reSlow := NewRemoteEngine(addrSlow)
	reFast := NewRemoteEngine(addrFast)
	t.Cleanup(func() { reSlow.Close(); reFast.Close() })

	rt, err := New(reSlow, reFast)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	rt.SetHedge(HedgePolicy{Enabled: true, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})

	opt := testOptions(core.ModeAuto)
	want := core.NewExecutorOn(ref, opt)
	got := core.NewExecutorOn(rt, opt)

	// Warm the connection pools so the baseline includes their server
	// handlers, then measure.
	assertIdentical(t, "warmup", want, got, []graph.NodeID{0})
	base := runtime.NumGoroutine()

	assertIdentical(t, "hedged", want, got, []graph.NodeID{7, 131, 299})
	c := rt.Counters()
	if c.HedgesSent == 0 || c.HedgesWon == 0 {
		t.Fatalf("hedging never raced the slow replica: %+v", c)
	}

	// The losers were canceled mid-RPC; every attempt goroutine must
	// drain and no canceled connection may poison the pool.
	waitGoroutines(t, base, 8)
	assertIdentical(t, "after-cancel", want, got, []graph.NodeID{42})
	waitGoroutines(t, base, 8)
}

// deadReadEngine assembles fine (control plane works) but fails every
// data-plane read — a worker whose disks just vanished.
type deadReadEngine struct {
	*LocalEngine
}

func (d *deadReadEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	return nil, fmt.Errorf("%w: dead read plane", ErrTransport)
}

// TestFailoverExhaustsThenSurfacesFirstError: when EVERY replica of the
// set fails, the caller gets the first transport error back rather than
// a hang or a zero answer.
func TestFailoverExhaustsThenSurfacesFirstError(t *testing.T) {
	g := testGraph(200, 5)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	rt, err := New(&deadReadEngine{NewLocalEngine(stA)}, &deadReadEngine{NewLocalEngine(stB)})
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutorOn(rt, testOptions(core.ModeAuto))
	_, err = ex.SingleSource(context.Background(), 0)
	if err == nil {
		t.Fatal("query succeeded with every replica down")
	}
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want transport error chain, got %v", err)
	}
}

// TestReplicaDeathFailoverAndRingReadmission kills one TCP replica
// outright, proves reads fail over and writes keep committing, then
// restarts it on the same address and watches the health pass replay the
// missed batches from the ring and re-admit it — the full lifecycle an
// operator sees when a worker dies and comes back.
func TestReplicaDeathFailoverAndRingReadmission(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets + timed backoff")
	}
	g := testGraph(300, 7)
	ref := shard.NewStore(g, 4, 0)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)

	addrA, stopA := startEngineWorker(t, NewLocalEngine(stA))
	addrB, _ := startEngineWorker(t, NewLocalEngine(stB))
	reA := NewRemoteEngine(addrA)
	reB := NewRemoteEngine(addrB)
	t.Cleanup(func() { reA.Close(); reB.Close() })

	rt, err := New(reA, reB)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })

	opt := testOptions(core.ModeAuto)
	want := core.NewExecutorOn(ref, opt)
	got := core.NewExecutorOn(rt, opt)
	nodes := []graph.NodeID{0, 131, 299}
	assertIdentical(t, "both-up", want, got, nodes)

	// Publish a fresh view while both replicas are current, then kill
	// replica A before anything materializes the new view's blocks: the
	// first read on it must touch the wire, eat A's transport error, and
	// fail over to B — bit-identically. (The OLD view's materialized
	// blocks would have served reads with no RPC at all.)
	rng := xrand.New(99)
	var added [][2]graph.NodeID
	ops := randomOps(rng, 300, &added, 5)
	applyToStore(t, ref, ops)
	ref.Publish()
	if err := rt.Apply(context.Background(), ops); err != nil {
		t.Fatalf("write with both replicas: %v", err)
	}
	if _, err := rt.PublishView(context.Background()); err != nil {
		t.Fatalf("publish with both replicas: %v", err)
	}
	stopA()
	assertIdentical(t, "one-dead", want, got, nodes)
	if c := rt.Counters(); c.Failovers == 0 {
		t.Fatalf("no failovers with a dead replica: %+v", c)
	}

	// A write must still commit (B acks it) while A burns its apply
	// retries and gets demoted.
	ops = randomOps(rng, 300, &added, 5)
	applyToStore(t, ref, ops)
	ref.Publish()
	if err := rt.Apply(context.Background(), ops); err != nil {
		t.Fatalf("write with one dead replica: %v", err)
	}
	if _, err := rt.PublishView(context.Background()); err != nil {
		t.Fatalf("publish with one dead replica: %v", err)
	}
	assertIdentical(t, "write-one-dead", want, got, nodes)
	var demoted bool
	for _, ws := range rt.WorkerStats() {
		if !ws.Current {
			demoted = true
			if ws.LagError == "" {
				t.Fatalf("demoted member has no lag error: %+v", ws)
			}
		}
	}
	if !demoted {
		t.Fatal("dead replica never demoted")
	}

	// A second write while A is down must skip it instantly (no retry
	// stall) — it is no longer current.
	ops = randomOps(rng, 300, &added, 5)
	applyToStore(t, ref, ops)
	ref.Publish()
	startApply := time.Now()
	if err := rt.Apply(context.Background(), ops); err != nil {
		t.Fatalf("second write with one dead replica: %v", err)
	}
	if d := time.Since(startApply); d > applyRetryDelay*applyAttempts {
		t.Fatalf("apply to demoted member stalled %v; should have been skipped", d)
	}
	if c := rt.Counters(); c.ApplySkips == 0 {
		t.Fatalf("demoted member was not skipped: %+v", c)
	}
	if _, err := rt.PublishView(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart A on the same address over its surviving store: it holds
	// everything up to the crash and must be replayed the two batches it
	// missed, then re-admitted.
	srvA2 := NewServer(NewLocalEngine(stA))
	ln, err := net.Listen("tcp", addrA)
	if err != nil {
		t.Fatalf("rebind %s: %v", addrA, err)
	}
	go srvA2.Serve(ln)
	t.Cleanup(func() { srvA2.Close() })

	deadline := time.Now().Add(20 * time.Second)
	for {
		_ = rt.CheckHealth(context.Background())
		all := true
		for _, ws := range rt.WorkerStats() {
			if !ws.Current {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-admitted: %+v", rt.WorkerStats())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if c := rt.Counters(); c.CatchupBatches < 2 {
		t.Fatalf("expected >=2 ring-replayed batches, got %+v", c)
	}
	if stA.LastBatch() != stB.LastBatch() {
		t.Fatalf("watermarks diverged after re-admission: %d vs %d", stA.LastBatch(), stB.LastBatch())
	}
	assertIdentical(t, "re-admitted", want, got, nodes)
}

// TestOneOfTwoWorkersDeadKeepsServing runs the shape of routed-churn and
// the multiproc smoke — two workers, listed as two single-worker groups
// the way the owned-stride layout listed them — and kills one before the
// router notices. A cold read fails over to the live worker, a write
// still succeeds, and a cold read after it answers bit-identically to an
// in-process store that took the same ops. Once the worker returns it is
// replayed from the ring and re-admitted, with answers still identical.
func TestOneOfTwoWorkersDeadKeepsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets + timed backoff")
	}
	ctx := context.Background()
	g := testGraph(300, 9)
	ref := shard.NewStore(g, 8, 0)
	stA, stB := shard.NewStore(g, 8, 0), shard.NewStore(g, 8, 0)
	addrA, _ := startEngineWorker(t, NewLocalEngine(stA))
	addrB, stopB := startEngineWorker(t, NewLocalEngine(stB))
	reA, reB := NewRemoteEngine(addrA), NewRemoteEngine(addrB)
	t.Cleanup(func() { reA.Close(); reB.Close() })
	rt, err := NewReplicated([][]ShardEngine{{reA}, {reB}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })

	opt := testOptions(core.ModeAuto)
	want := core.NewExecutorOn(ref, opt)
	got := core.NewExecutorOn(rt, opt)
	nodes := []graph.NodeID{0, 131, 299}
	assertIdentical(t, "both-up", want, got, nodes)

	rng := xrand.New(3)
	var added [][2]graph.NodeID
	write := func(tag string) {
		t.Helper()
		ops := randomOps(rng, 300, &added, 5)
		applyToStore(t, ref, ops)
		ref.Publish()
		if err := rt.Apply(ctx, ops); err != nil {
			t.Fatalf("%s: write: %v", tag, err)
		}
		if _, err := rt.PublishView(ctx); err != nil {
			t.Fatalf("%s: publish: %v", tag, err)
		}
	}
	coldRead := func(tag string) {
		t.Helper()
		fetches := rt.Counters().ShardFetches
		assertIdentical(t, tag, want, got, nodes)
		if rt.Counters().ShardFetches == fetches {
			t.Fatalf("%s: the read fetched no block; its view was not cold", tag)
		}
	}

	write("both-up")
	stopB() // the router still counts b current and healthy
	coldRead("b-dead, view published before")
	write("b-dead")
	coldRead("b-dead, view published after")
	if ws := rt.WorkerStats()[1]; ws.Current || ws.LagError == "" {
		t.Fatalf("dead worker not demoted: %+v", ws)
	}

	// Restart b on the same address over its surviving store: it missed
	// one batch, which the health pass replays from the ring.
	srvB2 := NewServer(NewLocalEngine(stB))
	ln, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatalf("rebind %s: %v", addrB, err)
	}
	go srvB2.Serve(ln)
	t.Cleanup(func() { srvB2.Close() })
	deadline := time.Now().Add(20 * time.Second)
	for rt.CheckHealth(ctx) != nil || !rt.WorkerStats()[1].Current {
		if time.Now().After(deadline) {
			t.Fatalf("worker never re-admitted: %+v", rt.WorkerStats())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if c := rt.Counters().CatchupBatches; c != 1 {
		t.Fatalf("%d batches replayed from the ring, want 1", c)
	}
	if stA.LastBatch() != stB.LastBatch() {
		t.Fatalf("watermarks %d and %d after re-admission", stA.LastBatch(), stB.LastBatch())
	}
	write("b-back")
	coldRead("b-back")
	for _, ws := range rt.WorkerStats() {
		if !ws.Current {
			t.Fatalf("worker demoted after the re-admission: %+v", ws)
		}
	}
}

// TestWorkerListSyntax covers the -workers list shared by the CLI: one
// comma-separated replica set, with semicolons, empty entries and
// duplicate addresses refused.
func TestWorkerListSyntax(t *testing.T) {
	got, err := ParseWorkers(" a:1, b:1,c:1 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a:1", "b:1", "c:1"}; !slices.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	single, err := ParseWorkers("a:1")
	if err != nil || !slices.Equal(single, []string{"a:1"}) {
		t.Fatalf("singleton: %q %v", single, err)
	}
	for _, c := range []struct{ spec, why string }{
		{"a:1,b:1;c:1,d:1", "use commas"},
		{"a:1;b:1", "use commas"},
		{";", "use commas"},
		{"a:1,a:1", "lists a:1 twice"},
		{"a:1,b:1, a:1", "lists a:1 twice"},
		{"a:1,,b:1", "entry 1 is empty"},
		{"a:1,", "entry 1 is empty"},
		{",a:1", "entry 0 is empty"},
		{"", "empty -workers"},
		{"  ", "empty -workers"},
	} {
		if _, err := ParseWorkers(c.spec); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Fatalf("ParseWorkers(%q) = %v, want an error saying %q", c.spec, err, c.why)
		}
	}
}
