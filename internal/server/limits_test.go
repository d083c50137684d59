package server

// Serving-plane tests for the deadline/budget/admission refactor:
// per-route timeouts surface as 504, work budgets and admission
// rejections as 503 with Retry-After, write backpressure rejects when
// the mutation queue is deep, and /metrics reports histograms for every
// query route. The concurrency-heavy cases run under -race in CI's
// serving-plane leg.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
)

// slowServer builds a server whose queries take long enough (hundreds of
// ms) that timeouts and admission limits engage deterministically.
func slowServer(t *testing.T, l Limits) *Server {
	t.Helper()
	g := gen.PreferentialAttachment(3000, 5, 9)
	// The tiny EpsA keeps the progressive route from legitimately
	// converging before the 1ms deadline fires (its stopping radius
	// scales with EpsA); the walk override slows the static routes.
	s := New(g, core.Options{Seed: 1, EpsA: 0.00001, NumWalks: 2_000_000}, 4, 50)
	s.SetLimits(l)
	return s
}

func TestQueryTimeoutReturns504(t *testing.T) {
	s := slowServer(t, Limits{QueryTimeout: time.Millisecond})
	for _, route := range []string{"/topk?u=1&k=5", "/single-source?u=1", "/pair?u=1&v=2", "/progressive-topk?u=1&k=5"} {
		start := time.Now()
		rec, body := do(t, s, http.MethodGet, route)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d (%v), want 504", route, rec.Code, body)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 504 without Retry-After", route)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s: 1ms deadline honored only after %v", route, elapsed)
		}
	}
}

func TestWalkBudgetReturns503(t *testing.T) {
	g := gen.PreferentialAttachment(500, 4, 9)
	s := New(g, core.Options{Seed: 1, NumWalks: 100000, Budget: core.Budget{MaxWalks: 200}}, 4, 50)
	rec, _ := do(t, s, http.MethodGet, "/topk?u=1&k=5")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 for exhausted walk budget", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestJoinTimeoutReturns504(t *testing.T) {
	g := gen.PreferentialAttachment(2000, 4, 9)
	s := New(g, core.Options{Seed: 1, NumWalks: 200000}, 4, 50)
	s.SetLimits(Limits{QueryTimeout: time.Millisecond})
	start := time.Now()
	rec, body := do(t, s, http.MethodGet, "/join/topk?k=3")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504", rec.Code, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("join deadline honored only after %v", elapsed)
	}
}

func TestAdmissionRejectsOverInflightLimit(t *testing.T) {
	s := slowServer(t, Limits{MaxInflight: 1})
	// Occupy the single slot with a slow query, then probe.
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
	// Wait until the slow query is inside the handler.
	deadline := time.Now().Add(5 * time.Second)
	for s.fairq.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never entered the handler")
		}
		time.Sleep(time.Millisecond)
	}
	rec, body := do(t, s, http.MethodGet, "/topk?u=2&k=5")
	close(release)
	wg.Wait()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%v), want 503 admission rejection", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("rejection without Retry-After")
	}
	if !strings.Contains(fmt.Sprint(body["error"]), "in flight") {
		t.Fatalf("rejection error %v does not name the limit", body["error"])
	}
	// The slot drains: a later query is admitted again (and may time out
	// for other reasons, but must not be 503-rejected).
	deadline = time.Now().Add(5 * time.Second)
	for s.fairq.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight gauge never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteBackpressureRejects(t *testing.T) {
	g := gen.PreferentialAttachment(200, 3, 4)
	s := New(g, core.Options{Seed: 1, NumWalks: 100}, 4, 50)
	s.SetLimits(Limits{MaxWriteQueue: 1})
	// Hold the write mutex directly (the mutator contract) so any write
	// request queues behind it deterministically.
	s.mu.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	queued := make(chan struct{})
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/edges?u=0&v=5", nil)
		close(queued)
		s.ServeHTTP(httptest.NewRecorder(), req) // blocks on s.mu
	}()
	<-queued
	deadline := time.Now().Add(5 * time.Second)
	for s.writeWaiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue depth is now 1 == limit: the next write must bounce.
	rec, body := do(t, s, http.MethodPost, "/edges?u=0&v=6")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%v), want 503 backpressure", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("backpressure rejection without Retry-After")
	}
	s.mu.Unlock()
	wg.Wait()
	// After the queue drains, writes flow again.
	rec, body = do(t, s, http.MethodPost, "/edges?u=0&v=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-drain write: status %d (%v)", rec.Code, body)
	}
}

func TestMetricsEndpointCoversQueryRoutes(t *testing.T) {
	s := testServer(t)
	// Touch every query route once so histograms have observations.
	for _, route := range []string{"/topk?u=1&k=2", "/single-source?u=1", "/pair?u=1&v=2", "/progressive-topk?u=1&k=2", "/join/topk?k=2", "/components"} {
		if rec, body := do(t, s, http.MethodGet, route); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", route, rec.Code, body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	page := rec.Body.String()
	for _, route := range []string{"/topk", "/single-source", "/pair", "/progressive-topk", "/join/topk", "/components", "/edges", "/edges/batch", "/stats"} {
		marker := fmt.Sprintf("probesim_request_duration_seconds_count{route=%q}", route)
		if !strings.Contains(page, marker) {
			t.Fatalf("/metrics missing histogram for %s:\n%s", route, page)
		}
	}
	// Every touched query route must have counted its request and at
	// least one non-+Inf-only histogram observation.
	scan := bufio.NewScanner(strings.NewReader(page))
	counts := map[string]int{}
	for scan.Scan() {
		line := scan.Text()
		if strings.HasPrefix(line, "probesim_request_duration_seconds_count{route=\"/topk\"}") {
			fmt.Sscanf(strings.Fields(line)[1], "%d", new(int))
		}
		if strings.HasPrefix(line, "probesim_requests_total{route=") {
			var n int
			fields := strings.Fields(line)
			fmt.Sscanf(fields[1], "%d", &n)
			counts[fields[0]] = n
		}
	}
	if n := counts[`probesim_requests_total{route="/topk"}`]; n != 1 {
		t.Fatalf("requests_total for /topk = %d, want 1", n)
	}
	for _, gauge := range []string{"probesim_graph_nodes", "probesim_cache_hits_total", "probesim_inflight_requests"} {
		if !strings.Contains(page, gauge) {
			t.Fatalf("/metrics missing %s", gauge)
		}
	}
}

func TestMetricsCountTimeoutsAndRejections(t *testing.T) {
	s := slowServer(t, Limits{QueryTimeout: time.Millisecond})
	do(t, s, http.MethodGet, "/topk?u=1&k=5") // 504
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	page := rec.Body.String()
	if !strings.Contains(page, `probesim_request_timeouts_total{route="/topk"} 1`) {
		t.Fatalf("timeout not counted:\n%s", page)
	}
}

func TestShardedMetricsIncludePublicationCounters(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 4)
	st := shard.NewStore(g, 8, 0)
	s := NewSharded(st, core.Options{Seed: 1, NumWalks: 100}, 4, 50)
	do(t, s, http.MethodPost, "/edges?u=0&v=9")
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	page := rec.Body.String()
	for _, m := range []string{"probesim_shards ", "probesim_shard_publications_total", "probesim_shards_reused_total"} {
		if !strings.Contains(page, m) {
			t.Fatalf("sharded /metrics missing %s", m)
		}
	}
}

// TestCancellationUnderConcurrentLoad is the serving-plane -race proof:
// tight-deadline queries, unbounded queries, progressive queries, joins
// and write batches all in flight at once; afterwards the server still
// answers correctly.
func TestCancellationUnderConcurrentLoad(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 21)
	st := shard.NewStore(g, 8, 0)
	s := NewSharded(st, core.Options{Seed: 3, NumWalks: 3000}, 8, 50)
	s.SetLimits(Limits{MaxInflight: 16, MaxWriteQueue: 8, QueryTimeout: time.Second})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	var serverErrors atomic.Int64
	client := ts.Client()
	get := func(url string, timeout time.Duration) int {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		resp, err := client.Do(req)
		if err != nil {
			return 0 // client-side timeout: fine
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				u := (w*31 + i*7) % 400
				switch i % 4 {
				case 0: // tight client deadline: cancels mid-kernel
					get(fmt.Sprintf("%s/topk?u=%d&k=5", ts.URL, u), 500*time.Microsecond)
				case 1:
					if code := get(fmt.Sprintf("%s/single-source?u=%d", ts.URL, u), 0); code == http.StatusInternalServerError {
						serverErrors.Add(1)
					}
				case 2:
					get(fmt.Sprintf("%s/progressive-topk?u=%d&k=5", ts.URL, u), time.Millisecond)
				case 3:
					ops := fmt.Sprintf(`[{"op":"add","u":%d,"v":%d}]`, u, (u+11)%400)
					resp, err := client.Post(ts.URL+"/edges/batch", "application/json", bytes.NewReader([]byte(ops)))
					if err == nil {
						if resp.StatusCode == http.StatusInternalServerError {
							serverErrors.Add(1)
						}
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := serverErrors.Load(); n > 0 {
		t.Fatalf("%d requests failed with 500 under churn", n)
	}
	// The server is still healthy and correct.
	rec, body := do(t, s, http.MethodGet, "/topk?u=1&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-churn query: status %d (%v)", rec.Code, body)
	}
}

// TestPublishCtxAborts pins the cancelable publication seam end to end
// through the server's write path contract: a canceled context aborts
// publication, the previous snapshot stays current, and the next
// publication picks the mutations up.
func TestPublishCtxAborts(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 4)
	st := shard.NewStore(g, 8, 0)
	before := st.Current()
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap, err := st.PublishCtx(ctx)
	if err == nil {
		t.Fatal("canceled publication succeeded")
	}
	if snap != before {
		t.Fatal("canceled publication changed the published snapshot")
	}
	if st.Stats().AbortedPublishes != 1 {
		t.Fatalf("abortedPublishes = %d, want 1", st.Stats().AbortedPublishes)
	}
	after := st.Publish()
	if after == before || after.Version() != st.Version() {
		t.Fatal("next publication did not pick up the pending mutation")
	}
	if err := after.Validate(); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, v := range after.OutNeighbors(1) {
		if v == graph.NodeID(2) {
			found = true
		}
	}
	if !found {
		t.Fatal("published snapshot lost the edge added before the aborted publish")
	}
}

// TestWriteBackpressureUnderBurst pins the add-then-check admission: a
// simultaneous burst of writers against MaxWriteQueue=1 admits at most
// one while the lock is held; the rest 503 instead of piling up.
func TestWriteBackpressureUnderBurst(t *testing.T) {
	g := gen.PreferentialAttachment(200, 3, 4)
	s := New(g, core.Options{Seed: 1, NumWalks: 100}, 4, 50)
	s.SetLimits(Limits{MaxWriteQueue: 1})
	s.mu.Lock() // every admitted writer blocks here
	const burst = 16
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, fmt.Sprintf("/edges?u=0&v=%d", 5+i), nil))
			codes <- rec.Code
		}(i)
	}
	// All rejections return immediately; at most one writer is admitted
	// and sits on the lock.
	deadline := time.Now().Add(5 * time.Second)
	for len(codes) < burst-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d burst writers resolved; waiters=%d", len(codes), burst, s.writeWaiters.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := s.writeWaiters.Load(); n > 1 {
		t.Fatalf("%d writers queued past the limit of 1", n)
	}
	s.mu.Unlock()
	wg.Wait()
	close(codes)
	ok, rejected := 0, 0
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok != 1 || rejected != burst-1 {
		t.Fatalf("ok=%d rejected=%d, want 1/%d", ok, rejected, burst-1)
	}
}

// TestJoinQueueBoundedByQueryTimeout pins the timeout-before-admission
// ordering: a join waiting for the (occupied) analysis slot 504s after
// QueryTimeout even when its client set no deadline of its own.
func TestJoinQueueBoundedByQueryTimeout(t *testing.T) {
	g := gen.PreferentialAttachment(200, 3, 4)
	s := New(g, core.Options{Seed: 1, NumWalks: 100}, 4, 50)
	s.SetLimits(Limits{MaxJoinInflight: 1, QueryTimeout: 20 * time.Millisecond})
	s.joinSem <- struct{}{} // occupy the only slot
	defer func() { <-s.joinSem }()
	start := time.Now()
	rec, body := do(t, s, http.MethodGet, "/join/topk?k=3")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%v), want 504 from the queue", rec.Code, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("queued join unbounded: %v", elapsed)
	}
}

// TestBudgetExhaustionCountsSeparatelyFromRejections pins the 503
// disambiguation: an admitted query that burns its walk budget counts
// under budget_exhausted, leaving rejections a pure admission signal.
func TestBudgetExhaustionCountsSeparatelyFromRejections(t *testing.T) {
	g := gen.PreferentialAttachment(500, 4, 9)
	s := New(g, core.Options{Seed: 1, NumWalks: 100000, Budget: core.Budget{MaxWalks: 200}}, 4, 50)
	rec, _ := do(t, s, http.MethodGet, "/topk?u=1&k=5")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, req)
	page := mrec.Body.String()
	if !strings.Contains(page, `probesim_request_budget_exhausted_total{route="/topk"} 1`) {
		t.Fatalf("budget exhaustion not counted:\n%s", page)
	}
	if !strings.Contains(page, `probesim_request_rejections_total{route="/topk"} 0`) {
		t.Fatalf("budget exhaustion leaked into rejections:\n%s", page)
	}
}
