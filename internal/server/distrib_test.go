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

	"probesim/internal/budget"
	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/router"
	"probesim/internal/shard"
)

// routedPair builds a sharded reference server and a routed server over
// two in-process engines covering the same graph, with identical options.
func routedPair(t *testing.T, shards int, opt core.Options) (ref, routed *Server) {
	t.Helper()
	g := gen.PreferentialAttachment(500, 4, 21)
	ref = NewSharded(shard.NewStore(g, shards, 0), opt, 4, 50)
	stA := shard.NewStore(g, shards, 0)
	stB := shard.NewStore(g, shards, 0)
	rt, err := router.New(router.NewLocalEngine(stA, 0, 2), router.NewLocalEngine(stB, 1, 2))
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
}

// TestRoutedStatsAndMetrics: the routed server surfaces per-worker rows
// and router counters.
func TestRoutedStatsAndMetrics(t *testing.T) {
	opt := core.Options{Seed: 3, NumWalks: 200}
	_, routed := routedPair(t, 4, opt)
	if rec, _ := do(t, routed, http.MethodGet, "/topk?u=1&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up query: %d", rec.Code)
	}
	_, body := do(t, routed, http.MethodGet, "/stats")
	if _, ok := body["routerWorkers"]; !ok {
		t.Fatalf("/stats missing routerWorkers: %v", body)
	}
	if body["routerWalkBatches"].(float64) == 0 || body["routerWalkDelegated"].(float64) == 0 {
		t.Fatalf("/stats batched walk counters did not move: %v", body)
	}
	if body["routerShardBatches"].(float64) == 0 {
		t.Fatalf("/stats routerShardBatches did not move: %v", body)
	}
	rec, _ := do2(routed, http.MethodGet, "/metrics")
	page := rec.Body.String()
	for _, want := range []string{
		"probesim_router_worker_up{worker=\"local\",group=\"0\",replica=\"0\"} 1",
		"probesim_router_worker_current{worker=\"local\",group=\"0\",replica=\"0\"} 1",
		"probesim_router_failovers_total",
		"probesim_router_hedges_sent_total",
		"probesim_router_shard_fetches_total",
		"probesim_router_shard_batches_total",
		"probesim_router_walk_batches_total",
		"probesim_router_walk_delegated_total",
		"probesim_router_walk_local_segments_total",
		"probesim_router_worker_calls_total",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q", want)
		}
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
	for s.queryInflight.Load() == 0 {
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
// /metrics for the sharded backend and move with publications.
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
// transport failure to HTTP 502 with Retry-After.
func TestRoutedWorkerDeathReturns502(t *testing.T) {
	opt := core.Options{Seed: 3, NumWalks: 500}
	g := gen.PreferentialAttachment(400, 4, 21)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	failing := &dyingEngine{LocalEngine: router.NewLocalEngine(stB, 1, 2)}
	rt, err := router.New(router.NewLocalEngine(stA, 0, 2), failing)
	if err != nil {
		t.Fatal(err)
	}
	s := NewRouted(rt, opt, 4, 50)
	failing.dead.Store(true)
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
		t.Fatalf("/components over dead worker: status %d (%v), want 502", rec.Code, body)
	}
}

// dyingEngine forwards to a LocalEngine until dead flips, then fails
// every read with a transport error — an in-process stand-in for a
// worker crash.
type dyingEngine struct {
	*router.LocalEngine
	dead atomic.Bool
}

func (d *dyingEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	if d.dead.Load() {
		return nil, fmt.Errorf("%w: injected crash", router.ErrTransport)
	}
	return d.LocalEngine.ResolveShards(ctx, version, ps)
}

func (d *dyingEngine) WalkBatch(ctx context.Context, version uint64, h budget.Header, sqrtC float64, walks []router.WalkStart) ([]router.WalkResult, error) {
	if d.dead.Load() {
		return nil, fmt.Errorf("%w: injected crash", router.ErrTransport)
	}
	return d.LocalEngine.WalkBatch(ctx, version, h, sqrtC, walks)
}
