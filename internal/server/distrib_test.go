package server

// Serving-plane tests for the distributed shard plane (PR 4): the routed
// backend end to end, degrade-instead-of-reject admission, snapshot GC
// gauges, and deadline-aware component scans.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/promexpo"
	"probesim/internal/router"
	"probesim/internal/shard"
)

// routedPair builds a sharded reference server and a routed server over
// a replica set of two in-process engines holding the same graph, with
// identical options.
func routedPair(t *testing.T, shards int, opt core.Options) (ref, routed *Server) {
	t.Helper()
	g := gen.PreferentialAttachment(500, 4, 21)
	ref = NewSharded(shard.NewStore(g, shards, 0), opt, 4, 50)
	stA := shard.NewStore(g, shards, 0)
	stB := shard.NewStore(g, shards, 0)
	rt, err := router.New(router.NewLocalEngine(stA), router.NewLocalEngine(stB))
	if err != nil {
		t.Fatal(err)
	}
	return ref, NewRouted(rt, opt, 4, 50)
}

// TestRoutedServerMatchesSharded drives the whole HTTP surface against
// both backends: identical queries must produce identical JSON, before
// and after writes.
func TestRoutedServerMatchesSharded(t *testing.T) {
	opt := core.Options{Seed: 3, NumWalks: 300}
	ref, routed := routedPair(t, 7, opt)

	check := func(target string) {
		t.Helper()
		recA, bodyA := do(t, ref, http.MethodGet, target)
		recB, bodyB := do(t, routed, http.MethodGet, target)
		if recA.Code != http.StatusOK || recB.Code != http.StatusOK {
			t.Fatalf("%s: statuses %d / %d (%v / %v)", target, recA.Code, recB.Code, bodyA, bodyB)
		}
		if !reflect.DeepEqual(bodyA, bodyB) {
			t.Fatalf("%s: %v vs %v", target, bodyA, bodyB)
		}
	}
	check("/topk?u=1&k=10")
	check("/single-source?u=42")
	check("/pair?u=1&v=7")
	check("/components")
	check("/join/topk?k=5")

	// Writes through both backends: single edge, then a batch.
	for _, s := range []*Server{ref, routed} {
		if rec, body := do(t, s, http.MethodPost, "/edges?u=3&v=499"); rec.Code != http.StatusOK {
			t.Fatalf("add edge: %d (%v)", rec.Code, body)
		}
	}
	batch := `[{"op":"add","u":5,"v":450},{"op":"add","u":450,"v":5},{"op":"remove","u":3,"v":499}]`
	for _, s := range []*Server{ref, routed} {
		req := httptest.NewRequest(http.MethodPost, "/edges/batch", bytes.NewBufferString(batch))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch: %d (%s)", rec.Code, rec.Body)
		}
	}
	check("/topk?u=5&k=10")
	check("/single-source?u=450")

	// A failing batch rolls back on both.
	bad := `[{"op":"add","u":10,"v":11},{"op":"remove","u":490,"v":489}]`
	for _, s := range []*Server{ref, routed} {
		req := httptest.NewRequest(http.MethodPost, "/edges/batch", bytes.NewBufferString(bad))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			t.Skip("remove 490->489 unexpectedly existed")
		}
	}
	check("/topk?u=10&k=10")

	// The shape /stats reads through the routed view's per-node methods.
	_, statsA := do(t, ref, http.MethodGet, "/stats")
	_, statsB := do(t, routed, http.MethodGet, "/stats")
	for _, key := range []string{"nodes", "edges", "maxInDegree", "zeroInDegree", "graphVersion"} {
		if statsA[key] != statsB[key] {
			t.Fatalf("/stats %s: %v vs %v", key, statsA[key], statsB[key])
		}
	}
}

// TestRoutedStatsAndMetrics: the routed server surfaces per-worker rows
// and router counters.
func TestRoutedStatsAndMetrics(t *testing.T) {
	opt := core.Options{Seed: 3, NumWalks: 200}
	_, routed := routedPair(t, 4, opt)
	if rec, _ := do(t, routed, http.MethodGet, "/topk?u=1&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up query: %d", rec.Code)
	}
	// An edge between shards 0 and 3 leaves shards 1 and 2 unchanged: the
	// next generation carries their blocks.
	if rec, body := do(t, routed, http.MethodPost, "/edges?u=3&v=499"); rec.Code != http.StatusOK {
		t.Fatalf("add edge: %d (%v)", rec.Code, body)
	}
	_, body := do(t, routed, http.MethodGet, "/stats")
	if _, ok := body["routerWorkers"]; !ok {
		t.Fatalf("/stats missing routerWorkers: %v", body)
	}
	if body["routerShardBatches"].(float64) == 0 {
		t.Fatalf("/stats routerShardBatches did not move: %v", body)
	}
	if got := body["routerShardBlocksCarried"].(float64); got != 2 {
		t.Fatalf("/stats routerShardBlocksCarried = %v after a write touching 2 of 4 shards, want 2", got)
	}
	for _, row := range body["routerWorkers"].([]any) {
		for _, gone := range []string{"group", "shards"} {
			if _, ok := row.(map[string]any)[gone]; ok {
				t.Fatalf("/stats routerWorkers row carries %q: %v", gone, row)
			}
		}
	}
	rec, _ := do2(routed, http.MethodGet, "/metrics")
	page := rec.Body.String()
	for _, gone := range []string{"group=", "probesim_router_worker_shards"} {
		if strings.Contains(page, gone) {
			t.Fatalf("/metrics still carries %q", gone)
		}
	}
	for _, want := range []string{
		"probesim_router_worker_up{worker=\"local\",replica=\"0\"} 1",
		"probesim_router_worker_current{worker=\"local\",replica=\"1\"} 1",
		"probesim_router_failovers_total",
		"probesim_router_hedges_sent_total",
		"probesim_router_shard_fetches_total",
		"probesim_router_shard_blocks_carried_total",
		`probesim_router_shard_fetch_errors_total{cause="transport"} 0`,
		`probesim_router_shard_fetch_errors_total{cause="deadline"} 0`,
		"probesim_router_shard_batches_total",
		"probesim_router_worker_calls_total",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
	if errs := promexpo.Lint(strings.NewReader(page)); len(errs) != 0 {
		t.Fatalf("routed /metrics fails exposition lint: %v", errs)
	}
}

// TestDegradeInsteadOfReject: between the soft watermark and the hard
// limit, queries are served at reduced accuracy with the degraded header
// instead of being 503-rejected, and the route counter moves.
func TestDegradeInsteadOfReject(t *testing.T) {
	s := slowServer(t, Limits{MaxInflight: 4, SoftInflight: 1, DegradeFactor: 1000})
	// No pressure: full accuracy, no header. (The un-degraded query would
	// run 2M walks, so probe it with a deadline and only check the header.)
	recQuiet := httptest.NewRecorder()
	reqQuiet := httptest.NewRequest(http.MethodGet, "/topk?u=3&k=5", nil)
	ctxQuiet, cancelQuiet := context.WithTimeout(reqQuiet.Context(), 50*time.Millisecond)
	defer cancelQuiet()
	s.ServeHTTP(recQuiet, reqQuiet.WithContext(ctxQuiet))
	if recQuiet.Header().Get("X-ProbeSim-Degraded") != "" {
		t.Fatal("unpressured query must not be degraded")
	}

	// Occupy one slot with a slow query to cross the soft watermark.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/topk?u=1&k=5", nil)
		ctx, cancel := context.WithCancel(req.Context())
		defer cancel()
		go func() { <-release; cancel() }()
		close(started)
		s.ServeHTTP(httptest.NewRecorder(), req.WithContext(ctx))
	}()
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for s.fairq.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never entered the handler")
		}
		time.Sleep(time.Millisecond)
	}

	// Above the watermark, below the cap: admitted, degraded, fast (the
	// factor shrinks the 2M-walk override by 10^6).
	rec, body := do(t, s, http.MethodGet, "/topk?u=2&k=5")
	close(release)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded query: status %d (%v), want 200", rec.Code, body)
	}
	hdr := rec.Header().Get("X-ProbeSim-Degraded")
	if !strings.HasPrefix(hdr, "epsa=") {
		t.Fatalf("degraded response header %q", hdr)
	}
	if got := s.reg.Route("/topk").Degraded.Load(); got == 0 {
		t.Fatal("degraded counter did not move")
	}
	rec2, _ := do2(s, http.MethodGet, "/metrics")
	if !strings.Contains(rec2.Body.String(), "probesim_request_degraded_total") {
		t.Fatal("/metrics missing degraded counter")
	}
}

// TestSnapshotGCStats: retired-generation gauges appear on /stats and
// /metrics for an in-process store and move with publications.
func TestSnapshotGCStats(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 5)
	s := NewSharded(shard.NewStore(g, 8, 0), core.Options{Seed: 1, NumWalks: 100}, 4, 50)
	for i := 0; i < 5; i++ {
		if rec, body := do(t, s, http.MethodPost, "/edges?u=1&v=300"); rec.Code != http.StatusOK {
			t.Fatalf("add: %d (%v)", rec.Code, body)
		}
		if rec, body := do(t, s, http.MethodDelete, "/edges?u=1&v=300"); rec.Code != http.StatusOK {
			t.Fatalf("remove: %d (%v)", rec.Code, body)
		}
	}
	_, body := do(t, s, http.MethodGet, "/stats")
	if body["snapshotRetiredTotal"].(float64) < 5 {
		t.Fatalf("snapshotRetiredTotal = %v after 10 publications", body["snapshotRetiredTotal"])
	}
	if _, ok := body["snapshotRetiredLive"]; !ok {
		t.Fatalf("/stats missing snapshotRetiredLive: %v", body)
	}
	if body["snapshotCurrentBytes"].(float64) <= 0 {
		t.Fatalf("snapshotCurrentBytes = %v", body["snapshotCurrentBytes"])
	}
	rec, _ := do2(s, http.MethodGet, "/metrics")
	page := rec.Body.String()
	for _, want := range []string{
		"probesim_snapshot_retired_total",
		"probesim_snapshot_retired_generations",
		"probesim_snapshot_retired_bytes",
		"probesim_snapshot_bytes",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestComponentsHonorsDeadlineMidScan: a component scan on a large graph
// under a 1ms deadline returns 504 promptly — the meter is checkpointed
// inside the traversal, not just between requests.
func TestComponentsHonorsDeadlineMidScan(t *testing.T) {
	g := gen.Grid(500, 500) // 250k nodes: several ms of scan at least
	s := New(g, core.Options{Seed: 1, NumWalks: 100}, 4, 50)
	s.SetLimits(Limits{QueryTimeout: time.Millisecond})
	start := time.Now()
	rec, body := do(t, s, http.MethodGet, "/components")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504", rec.Code, body)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("1ms deadline honored only after %v", el)
	}
}

// TestRoutedWorkerDeathReturns502: the routed server maps a mid-query
// transport failure on every worker to HTTP 502 with Retry-After.
func TestRoutedWorkerDeathReturns502(t *testing.T) {
	opt := core.Options{Seed: 3, NumWalks: 500}
	rt, workers := dyingPair(t)
	s := NewRouted(rt, opt, 4, 50)
	for _, w := range workers {
		w.dead.Store(true)
	}
	rec, body := do(t, s, http.MethodGet, "/topk?u=1&k=5")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d (%v), want 502", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("502 without Retry-After")
	}
	// The component scan binds to the same failure plane: it must abort
	// (502), not silently count components over empty adjacency.
	rec, body = do(t, s, http.MethodGet, "/components")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("/components over dead workers: status %d (%v), want 502", rec.Code, body)
	}
}

// TestRoutedShapeReadersOverDeadWorker: the join binds to the request
// like a query, so a fleet whose every worker is dead is a 502 instead
// of a join over no adjacency, and /stats reads the graph's shape with
// one fetch attempt per request — one failed chunk per worker — not one
// per node.
func TestRoutedShapeReadersOverDeadWorker(t *testing.T) {
	rt, workers := dyingPair(t)
	s := NewRouted(rt, core.Options{Seed: 3, NumWalks: 100}, 4, 50)
	for _, w := range workers {
		w.dead.Store(true)
	}
	if rec, body := do(t, s, http.MethodGet, "/join/topk?k=5"); rec.Code != http.StatusBadGateway {
		t.Fatalf("/join/topk over dead workers: status %d (%v), want 502", rec.Code, body)
	}
	before := rt.Counters().ShardFetchErrors.Total()
	if rec, body := do(t, s, http.MethodGet, "/stats"); rec.Code != http.StatusOK {
		t.Fatalf("/stats over dead workers: status %d (%v)", rec.Code, body)
	}
	if got := rt.Counters().ShardFetchErrors.Total() - before; got != int64(len(workers)) {
		t.Fatalf("/stats made %d failed fetches, want %d (one chunk per worker)", got, len(workers))
	}
}

// TestRoutedGroupLossOnEdgeWriteReturns502: a routed POST /edges that no
// worker acknowledges — one applies it and loses every reply, the other
// is dead — answers 502 without Retry-After and tells the client not to
// re-submit blindly: the worker that applied holds the batch durably
// (the router does not roll back) and the ring replays it to the other,
// so a blind retry would double-apply. It is the same contract
// /edges/batch has, because both endpoints share one write path.
func TestRoutedGroupLossOnEdgeWriteReturns502(t *testing.T) {
	rt, workers := dyingPair(t)
	s := NewRouted(rt, core.Options{Seed: 3, NumWalks: 100}, 4, 50)
	stA := workers[0].Store()
	before := stA.NumEdges()
	workers[0].lostReply.Store(true)
	workers[1].dead.Store(true)
	rec, body := do(t, s, http.MethodPost, "/edges?u=1&v=300")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d (%v), want 502", rec.Code, body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Fatalf("unacknowledged-write 502 carries Retry-After %q; a blind retry double-applies", ra)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "do not blindly re-submit") {
		t.Fatalf("error %q lacks the do-not-resubmit warning", msg)
	}
	if got := stA.NumEdges(); got != before+1 {
		t.Fatalf("the applying worker holds %d edges, want %d: the batch must apply once and not be rolled back", got, before+1)
	}
}

// dyingPair builds a router over a replica set of two dyingEngines, each
// on its own store of one PA graph.
func dyingPair(t *testing.T) (*router.Router, [2]*dyingEngine) {
	t.Helper()
	g := gen.PreferentialAttachment(400, 4, 21)
	var workers [2]*dyingEngine
	for i := range workers {
		workers[i] = &dyingEngine{LocalEngine: router.NewLocalEngine(shard.NewStore(g, 4, 0))}
	}
	rt, err := router.New(workers[0], workers[1])
	if err != nil {
		t.Fatal(err)
	}
	return rt, workers
}

// dyingEngine forwards to a LocalEngine until dead flips, then fails
// every read and write with a transport error — an in-process stand-in
// for a worker crash. With lostReply set, Apply applies the batch and
// then fails in transport: a worker that crashed before replying.
type dyingEngine struct {
	*router.LocalEngine
	dead, lostReply atomic.Bool
}

func (d *dyingEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	if d.dead.Load() {
		return 0, fmt.Errorf("%w: injected crash", router.ErrTransport)
	}
	v, err := d.LocalEngine.Apply(ctx, batch, ops)
	if err == nil && d.lostReply.Load() {
		return 0, fmt.Errorf("%w: injected reply loss", router.ErrTransport)
	}
	return v, err
}

func (d *dyingEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	if d.dead.Load() {
		return nil, fmt.Errorf("%w: injected crash", router.ErrTransport)
	}
	return d.LocalEngine.ResolveShards(ctx, version, ps)
}
