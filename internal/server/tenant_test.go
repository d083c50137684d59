package server

// Tenant-aware serving plane tests: fair-queued admission (the
// acceptance property — a saturating batch tenant cannot starve or
// reject a latency-strict tenant), the Max-Epsa degradation-refusal
// contract, per-tenant /metrics families, /debug/slo, the load-derived
// Retry-After hint, and a full-page exposition lint over everything the
// armed server renders.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/promexpo"
	"probesim/internal/qtrace"
	"probesim/internal/shard"
	"probesim/internal/slo"
	"probesim/internal/tenant"
)

// doTenant is do() with a tenant header (and optional extra headers).
func doTenant(t *testing.T, s *Server, method, target, ten string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	if ten != "" {
		req.Header.Set(tenant.Header, ten)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// holdSlot takes one real admission slot for the rest of the test, as
// an in-flight query would.
func holdSlot(t *testing.T, s *Server) {
	t.Helper()
	rel, err := s.fairq.Acquire(context.Background(), s.solo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rel)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFairQueueingUnderBatchSaturation is the acceptance test: with the
// single execution slot held and the batch tenant's queue full, (a) a
// further batch request 503s against its OWN queue, (b) a
// latency-strict request still admits — it queues and is granted,
// never rejected by the batch backlog — and (c) the per-tenant counters
// land on /metrics.
func TestFairQueueingUnderBatchSaturation(t *testing.T) {
	s := slowServer(t, Limits{MaxInflight: 1})
	reg := tenant.NewRegistry(tenant.DegradeTolerant, map[tenant.Class]tenant.Config{
		tenant.ThroughputBatch: {QueueDepth: 2, Weight: 1, AllowDegrade: true},
	})
	reg.Configure("strict", tenant.LatencyStrict)
	reg.Configure("batch", tenant.ThroughputBatch)
	s.SetTenants(reg)
	batchT := reg.Resolve("batch")
	strictT := reg.Resolve("strict")

	serve := func(ctx context.Context, ten string) (*httptest.ResponseRecorder, chan struct{}) {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		req := httptest.NewRequest(http.MethodGet, "/topk?u=1&k=5", nil).WithContext(ctx)
		req.Header.Set(tenant.Header, ten)
		go func() {
			defer close(done)
			s.ServeHTTP(rec, req)
		}()
		return rec, done
	}

	// Occupy the only slot with a slow batch query.
	blockerCtx, cancelBlocker := context.WithCancel(context.Background())
	defer cancelBlocker()
	_, blockerDone := serve(blockerCtx, "batch")
	waitUntil(t, "blocker in flight", func() bool { return s.fairq.Inflight() == 1 })

	// Fill batch's wait queue (depth 2).
	waitCtx, cancelWaiters := context.WithCancel(context.Background())
	defer cancelWaiters()
	_, w1Done := serve(waitCtx, "batch")
	_, w2Done := serve(waitCtx, "batch")
	waitUntil(t, "batch queue full", func() bool { return s.fairq.TenantQueuedLen(batchT) == 2 })

	// (a) One more batch request bounces off its own full queue.
	rec := doTenant(t, s, http.MethodGet, "/topk?u=2&k=5", "batch", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-depth batch request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-full rejection without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "queue full") {
		t.Fatalf("rejection body does not name the queue: %s", rec.Body.String())
	}

	// (b) The strict tenant is NOT rejected: it queues.
	strictCtx, cancelStrict := context.WithCancel(context.Background())
	defer cancelStrict()
	strictRec, strictDone := serve(strictCtx, "strict")
	waitUntil(t, "strict queued", func() bool { return s.fairq.TenantQueuedLen(strictT) == 1 })

	// Drain: the batch waiters give up, the blocker finishes, and the
	// strict query is granted the slot.
	cancelWaiters()
	<-w1Done
	<-w2Done
	cancelBlocker()
	<-blockerDone
	waitUntil(t, "strict admitted", func() bool { return strictT.Admitted.Load() == 1 })
	cancelStrict() // don't wait out the deliberately slow kernel
	<-strictDone
	if strictRec.Code == http.StatusServiceUnavailable {
		t.Fatalf("strict tenant was 503-rejected by the batch backlog: %s", strictRec.Body.String())
	}

	// (c) Counters: batch rejected once, strict queued once, and the
	// families render with tenant+class labels.
	if got := batchT.Rejected.Load(); got != 1 {
		t.Fatalf("batch rejected = %d, want 1", got)
	}
	if got := strictT.Queued.Load(); got != 1 {
		t.Fatalf("strict queued = %d, want 1", got)
	}
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	page := mrec.Body.String()
	for _, want := range []string{
		`probesim_tenant_rejected_total{tenant="batch",class="throughput-batch"} 1`,
		`probesim_tenant_queued_total{tenant="strict",class="latency-strict"} 1`,
		`probesim_tenant_inflight{tenant="strict",class="latency-strict"} 0`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
}

// TestTenantsWithoutInflightLimitCountAdmissions: with no in-flight
// limit every query is admitted at once, and the tenant's admission
// counters still count it.
func TestTenantsWithoutInflightLimitCountAdmissions(t *testing.T) {
	g := gen.PreferentialAttachment(200, 3, 4)
	s := New(g, core.Options{Seed: 1, EpsA: 0.1, NumWalks: 200}, 4, 50)
	s.SetLimits(Limits{})
	reg := tenant.NewRegistry(tenant.DegradeTolerant, nil)
	reg.Configure("search", tenant.LatencyStrict)
	s.SetTenants(reg)
	if rec := doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "search", nil); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	search := reg.Resolve("search")
	if got := search.Admitted.Load(); got != 1 {
		t.Fatalf("search admitted = %d, want 1", got)
	}
	if got := search.Inflight.Load(); got != 0 {
		t.Fatalf("search inflight = %d after the query finished, want 0", got)
	}
}

// TestSetTenantsBeforeSetLimitsQueues: arming tenants before the limits
// still fair-queues — a query arriving while the only slot is held waits
// in its tenant's queue (and here outlives its deadline: 504) instead of
// bouncing off the limit with a 503.
func TestSetTenantsBeforeSetLimitsQueues(t *testing.T) {
	s := slowServer(t, Limits{})
	reg := tenant.NewRegistry(tenant.DegradeTolerant, nil)
	reg.Configure("batch", tenant.ThroughputBatch)
	reg.Configure("strict", tenant.LatencyStrict)
	s.SetTenants(reg)
	s.SetLimits(Limits{MaxInflight: 1})

	blockerCtx, cancelBlocker := context.WithCancel(context.Background())
	blocker := httptest.NewRequest(http.MethodGet, "/topk?u=1&k=5", nil).WithContext(blockerCtx)
	blocker.Header.Set(tenant.Header, "batch")
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		s.ServeHTTP(httptest.NewRecorder(), blocker)
	}()
	defer func() {
		cancelBlocker()
		<-blockerDone
	}()
	waitUntil(t, "blocker in flight", func() bool { return s.fairq.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/topk?u=2&k=5", nil).WithContext(ctx)
	req.Header.Set(tenant.Header, "strict")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504 after waiting in the tenant's queue", rec.Code, rec.Body.String())
	}
	if got := reg.Resolve("strict").Queued.Load(); got != 1 {
		t.Fatalf("strict queued = %d, want 1", got)
	}
}

// degradeServer builds a fast server one bumped in-flight count away
// from the degrade watermark, with tenants armed.
func degradeServer(t *testing.T, defClass tenant.Class) (*Server, *tenant.Registry) {
	t.Helper()
	g := gen.PreferentialAttachment(200, 3, 4)
	s := New(g, core.Options{Seed: 1, EpsA: 0.1, NumWalks: 200}, 4, 50)
	s.SetLimits(Limits{MaxInflight: 8, SoftInflight: 1, DegradeFactor: 2})
	reg := tenant.NewRegistry(defClass, nil)
	reg.Configure("strict", tenant.LatencyStrict)
	s.SetTenants(reg)
	return s, reg
}

func TestMaxEpsaContract(t *testing.T) {
	s, reg := degradeServer(t, tenant.DegradeTolerant)
	// Push the in-flight count over the soft watermark so every request
	// below is a degrade candidate.
	holdSlot(t, s)

	// Baseline: a degrade-tolerant tenant is served degraded, honestly
	// labeled.
	rec := doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "anon", nil)
	if rec.Code != http.StatusOK || rec.Header().Get(degradedHeader) == "" {
		t.Fatalf("degrade-tolerant over watermark: status %d, degraded header %q",
			rec.Code, rec.Header().Get(degradedHeader))
	}

	// Max-Epsa wide enough for the degrade (0.2): still served degraded.
	rec = doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "anon",
		map[string]string{tenant.MaxEpsaHeader: "0.5"})
	if rec.Code != http.StatusOK || rec.Header().Get(degradedHeader) == "" {
		t.Fatalf("permissive Max-Epsa: status %d", rec.Code)
	}

	// Max-Epsa between base (0.1) and the degraded εa (0.2): the server
	// REFUSES instead of silently over-degrading.
	rec = doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "anon",
		map[string]string{tenant.MaxEpsaHeader: "0.15"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("violated Max-Epsa: status %d, want 503 refusal", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degrade refusal without Retry-After")
	}
	if got := reg.Resolve("anon").DegradeRefused.Load(); got != 1 {
		t.Fatalf("degrade_refused = %d, want 1", got)
	}

	// Max-Epsa below the configured base εa is unsatisfiable even off
	// peak: client error.
	rec = doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "anon",
		map[string]string{tenant.MaxEpsaHeader: "0.05"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unsatisfiable Max-Epsa: status %d, want 400", rec.Code)
	}
	// Malformed header: client error.
	rec = doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "anon",
		map[string]string{tenant.MaxEpsaHeader: "banana"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed Max-Epsa: status %d, want 400", rec.Code)
	}

	// A latency-strict tenant never degrades: full accuracy over the
	// watermark, no header, and its tight Max-Epsa is satisfied.
	rec = doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "strict",
		map[string]string{tenant.MaxEpsaHeader: "0.1"})
	if rec.Code != http.StatusOK || rec.Header().Get(degradedHeader) != "" {
		t.Fatalf("latency-strict over watermark: status %d, degraded header %q",
			rec.Code, rec.Header().Get(degradedHeader))
	}
	if got := reg.Resolve("strict").Degraded.Load(); got != 0 {
		t.Fatalf("strict tenant counted %d degrades", got)
	}
}

func TestTenantsOffKeepsLegacyBehavior(t *testing.T) {
	// Without SetTenants, headerless traffic gets the pre-tenant
	// contract verbatim (silent degrade over the watermark, no tenant
	// accounting). X-ProbeSim-Max-Epsa is a per-request accuracy
	// contract and is honored even without a registry.
	g := gen.PreferentialAttachment(200, 3, 4)
	s := New(g, core.Options{Seed: 1, EpsA: 0.1, NumWalks: 200}, 4, 50)
	s.SetLimits(Limits{MaxInflight: 8, SoftInflight: 1, DegradeFactor: 2})
	holdSlot(t, s)
	rec := doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "whoever", nil)
	if rec.Code != http.StatusOK || rec.Header().Get(degradedHeader) == "" {
		t.Fatalf("legacy degrade path changed: status %d, degraded header %q",
			rec.Code, rec.Header().Get(degradedHeader))
	}
	rec = doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "whoever",
		map[string]string{tenant.MaxEpsaHeader: "0.15"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("Max-Epsa ignored without a registry: status %d, want 503", rec.Code)
	}
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(mrec.Body.String(), "probesim_tenant_") {
		t.Fatal("tenant families rendered without a registry")
	}
}

func TestRetryAfterDerivedFromLoad(t *testing.T) {
	s, _ := degradeServer(t, tenant.DegradeTolerant)
	// No observations yet: the floor.
	if got := s.retryAfterHint(); got != "1" {
		t.Fatalf("cold hint %q, want 1", got)
	}
	// Warm the EWMA with real queries, then check the hint is a sane
	// integer in the clamp range.
	for i := 0; i < 3; i++ {
		if rec := doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "", nil); rec.Code != http.StatusOK {
			t.Fatalf("warmup query: %d", rec.Code)
		}
	}
	if s.svcTimeEWMA.Load() == 0 {
		t.Fatal("service-time EWMA never fed")
	}
	n, err := strconv.Atoi(s.retryAfterHint())
	if err != nil || n < retryAfterMin || n > retryAfterMax {
		t.Fatalf("warm hint %q out of range", s.retryAfterHint())
	}
	// Saturated pressure clamps at the cap instead of telling clients to
	// come back in an hour.
	s.svcTimeEWMA.Store(int64(10 * time.Minute))
	if got := s.retryAfterHint(); got != strconv.Itoa(retryAfterMax) {
		t.Fatalf("saturated hint %q, want %d", got, retryAfterMax)
	}
}

func TestDebugSLOAndTenantTraceTagging(t *testing.T) {
	s, _ := degradeServer(t, tenant.DegradeTolerant)
	s.SetSLO(slo.New(slo.Config{
		Window:    time.Minute,
		PerTenant: map[string]slo.Objective{"search": {P99: time.Second, Availability: 0.999}},
	}))
	s.SetTracer(qtrace.NewTracer(0, 1, 8, nil))
	for i := 0; i < 5; i++ {
		if rec := doTenant(t, s, http.MethodGet, "/topk?u=1&k=5", "search", nil); rec.Code != http.StatusOK {
			t.Fatalf("query %d: %d", i, rec.Code)
		}
	}
	rec, body := do(t, s, http.MethodGet, "/debug/slo")
	if rec.Code != http.StatusOK || body["enabled"] != true {
		t.Fatalf("/debug/slo: %d %v", rec.Code, body)
	}
	tenants, _ := body["tenants"].([]any)
	var found map[string]any
	for _, e := range tenants {
		if m, ok := e.(map[string]any); ok && m["tenant"] == "search" {
			found = m
		}
	}
	if found == nil {
		t.Fatalf("/debug/slo missing tenant search: %v", body)
	}
	if found["requests"] != float64(5) || found["availability"] != float64(1) {
		t.Fatalf("slo window: %v", found)
	}
	if found["latency_met"] != true || found["availability_met"] != true {
		t.Fatalf("objectives not met in a healthy window: %v", found)
	}
	// Sampled traces carry the tenant.
	var tagged bool
	for _, d := range s.tracer.Recent() {
		if d.Tenant == "search" {
			tagged = true
		}
	}
	if !tagged {
		t.Fatal("no ring trace tagged with the tenant")
	}
	// And the SLO families render on /metrics.
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	page := mrec.Body.String()
	for _, want := range []string{
		`probesim_slo_error_budget_burn_ratio{tenant="search"} 0`,
		`probesim_slo_window_requests{tenant="search"} 5`,
		`probesim_slo_availability{tenant="search"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
}

// TestMetricsPagePassesLint is the exposition-validity satellite at the
// integration level: the full page of a maximally armed server — sharded
// store, tracer, tenants (including a hostile tenant name), SLO tracker,
// build info — must parse cleanly under the format linter.
func TestMetricsPagePassesLint(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 4)
	st := shard.NewStore(g, 8, 0)
	s := NewSharded(st, core.Options{Seed: 1, EpsA: 0.1, NumWalks: 200}, 4, 50)
	s.SetLimits(Limits{MaxInflight: 8, SoftInflight: 4, QueryTimeout: time.Second})
	reg := tenant.NewRegistry(tenant.DegradeTolerant, nil)
	s.SetTenants(reg)
	s.SetSLO(slo.New(slo.Config{Window: time.Minute}))
	s.SetTracer(qtrace.NewTracer(time.Nanosecond, 1, 8, nil))

	hostile := "evil\"tenant\\name"
	var wg sync.WaitGroup
	for _, ten := range []string{"", "search", hostile} {
		wg.Add(1)
		go func(ten string) {
			defer wg.Done()
			doTenant(t, s, http.MethodGet, "/topk?u=1&k=3", ten, nil)
		}(ten)
	}
	wg.Wait()
	doTenant(t, s, http.MethodPost, "/edges?u=0&v=9", "", nil)
	do(t, s, http.MethodGet, "/stats")

	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if errs := promexpo.Lint(strings.NewReader(mrec.Body.String())); len(errs) != 0 {
		t.Fatalf("/metrics fails exposition lint: %v\npage:\n%s", errs, mrec.Body.String())
	}
	if !strings.Contains(mrec.Body.String(), `probesim_build_info{binary="probesim-server"`) {
		t.Fatal("/metrics missing build info gauge")
	}
}
