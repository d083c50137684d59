package server

// Serving-tier tests for the hot-source index: the X-ProbeSim-Tier
// header flow, the ?tier=live escape hatch, the /stats and /metrics
// surface, and — the admission-interaction contract — that background
// refresh work never occupies foreground admission slots and steps aside
// from the CPU under inflight pressure.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/hotidx"
	"probesim/internal/promexpo"
	"probesim/internal/shard"
)

// hotServer builds a sharded server with the hot tier armed. The tier
// runs with its production defaults (MinHits 2, 100ms reconcile tick),
// so tests poll for warm-up.
func hotServer(t *testing.T) (*Server, *hotidx.Tier) {
	t.Helper()
	g := gen.PreferentialAttachment(400, 4, 9)
	st := shard.NewStore(g, 8, 0)
	s := NewSharded(st, core.Options{Seed: 1, EpsA: 0.2}, 8, 500)
	tier := s.EnableHotTier(8, 5*time.Second)
	t.Cleanup(tier.Close)
	return s, tier
}

// waitHotHeader polls target until it is served with X-ProbeSim-Tier:
// hot, returning that response body. The polling itself supplies the
// query popularity that promotes the source.
func waitHotHeader(t *testing.T, s *Server, target string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		rec, body := do(t, s, http.MethodGet, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", target, rec.Code, body)
		}
		switch tier := rec.Header().Get(tierHeader); tier {
		case "hot":
			return body
		case "live":
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("%s: tier header %q, want hot or live", target, tier)
		}
	}
	t.Fatal("source never served from the hot tier")
	return nil
}

func TestHotTierHeaderAndBitIdenticalBody(t *testing.T) {
	s, tier := hotServer(t)
	hot := waitHotHeader(t, s, "/single-source?u=7")

	// The escape hatch runs the live kernel; with the tier's contract
	// (same snapshot, same options, same seed) the scores must be
	// IDENTICAL, and the header must say live.
	rec, live := do(t, s, http.MethodGet, "/single-source?u=7&tier=live")
	if rec.Code != http.StatusOK {
		t.Fatalf("tier=live: status %d (%v)", rec.Code, live)
	}
	if h := rec.Header().Get(tierHeader); h != "live" {
		t.Fatalf("tier=live served with header %q", h)
	}
	hotScores := hot["scores"].(map[string]any)
	liveScores := live["scores"].(map[string]any)
	if len(hotScores) != len(liveScores) {
		t.Fatalf("hot returned %d scores, live %d", len(hotScores), len(liveScores))
	}
	for node, sc := range hotScores {
		if liveScores[node] != sc {
			t.Fatalf("node %s: hot %v != live %v — tiers must be bit-identical", node, sc, liveScores[node])
		}
	}
	// The live misses that made 7 hot left its answer in the result
	// cache, so the tier pinned that answer in place instead of building.
	if st := tier.Stats(); st.Entries < 1 || st.Hits < 1 || st.Builds != 0 {
		t.Fatalf("tier counters %+v, want the held answer pinned and served without a build", st)
	}
}

// TestHotTierLiveEscapeRunsKernel: ?tier=live runs the live kernel, so
// on a hot source that the result cache also holds it moves neither the
// cache's counters nor the tier's hits, and still returns the hot body
// byte for byte.
func TestHotTierLiveEscapeRunsKernel(t *testing.T) {
	s, _ := hotServer(t)
	waitHotHeader(t, s, "/single-source?u=7")
	hotRec, _ := do(t, s, http.MethodGet, "/single-source?u=7")
	if h := hotRec.Header().Get(tierHeader); h != "hot" {
		t.Fatalf("warm source served from %q, want hot", h)
	}
	counters := func() [3]any {
		_, st := do(t, s, http.MethodGet, "/stats")
		return [3]any{st["cacheHits"], st["cacheMisses"], st["hotHits"]}
	}
	before := counters()
	rec, _ := do(t, s, http.MethodGet, "/single-source?u=7&tier=live")
	if h := rec.Header().Get(tierHeader); rec.Code != http.StatusOK || h != "live" {
		t.Fatalf("tier=live: status %d, tier %q", rec.Code, h)
	}
	if after := counters(); after != before {
		t.Fatalf("tier=live moved [cacheHits cacheMisses hotHits] from %v to %v", before, after)
	}
	if got, want := rec.Body.String(), hotRec.Body.String(); got != want {
		t.Fatalf("tier=live body %s, hot body %s", got, want)
	}
}

func TestHotTierInvalidatedByWrite(t *testing.T) {
	s, tier := hotServer(t)
	s.SetLimits(Limits{MaxInflight: 2})
	waitHotHeader(t, s, "/single-source?u=7")

	// A write into node 7 must invalidate its entry (every build reads
	// the source's in-list); the next query falls back to live (correct
	// answer on the new snapshot), and the refresher re-promotes it
	// eventually. A held slot keeps the refresher yielding across the
	// write and that first read, so the write's wake-up cannot rebuild
	// the entry before the read.
	rel, err := s.fairq.Acquire(context.Background(), s.solo)
	if err != nil {
		t.Fatal(err)
	}
	if rec, body := do(t, s, http.MethodPost, "/edges?u=399&v=7"); rec.Code != http.StatusOK {
		t.Fatalf("write: status %d (%v)", rec.Code, body)
	}
	rec, _ := do(t, s, http.MethodGet, "/single-source?u=7")
	if h := rec.Header().Get(tierHeader); h != "live" {
		t.Fatalf("first post-write query served from %q, want live (entry must be invalidated)", h)
	}
	if st := tier.Stats(); st.Invalidations == 0 {
		t.Fatalf("write did not invalidate: %+v", st)
	}
	rel()
	waitHotHeader(t, s, "/single-source?u=7")
}

func TestStatsAndMetricsExposeHotAndCacheCounters(t *testing.T) {
	s, _ := hotServer(t)
	waitHotHeader(t, s, "/single-source?u=7")

	_, stats := do(t, s, http.MethodGet, "/stats")
	for _, key := range []string{
		"hotEntries", "hotStaleEntries", "hotTrackedSources", "hotHits", "hotMisses",
		"hotInvalidations", "hotBuilds", "hotBuildErrors", "hotEvictions", "hotYields",
		"hotWatermark", "hotLagBatches", "hotDiscardedBuildSeconds",
		"cacheHits", "cacheMisses", "cacheEvictions", "cacheInvalidations",
	} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("/stats missing %q: %v", key, stats)
		}
	}
	if stats["hotEntries"].(float64) < 1 || stats["hotHits"].(float64) < 1 {
		t.Fatalf("/stats hot counters flat after a hot-served query: %v", stats)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	page := rec.Body.String()
	for _, m := range []string{
		"probesim_hot_entries", "probesim_hot_stale_entries", "probesim_hot_tracked_sources",
		"probesim_hot_hits_total", "probesim_hot_misses_total", "probesim_hot_invalidations_total",
		"probesim_hot_builds_total", "probesim_hot_evictions_total",
		`probesim_hot_build_errors_total{cause="stopped"}`, `probesim_hot_build_errors_total{cause="raced"}`,
		"probesim_hot_yields_total", "probesim_hot_watermark",
		"probesim_hot_lag_batches", "probesim_cache_evictions_total",
		`probesim_hot_discarded_build_seconds_total{cause="stopped"}`, `probesim_hot_discarded_build_seconds_total{cause="raced"}`,
		`probesim_cache_invalidations_total{cause="touched"}`, `probesim_cache_invalidations_total{cause="unbounded"}`,
		`probesim_cache_invalidations_total{cause="flush"}`,
	} {
		if !strings.Contains(page, m) {
			t.Fatalf("/metrics missing %s", m)
		}
	}
	if errs := promexpo.Lint(strings.NewReader(page)); len(errs) != 0 {
		t.Fatalf("/metrics fails lint: %v", errs)
	}
}

// TestHotRefreshYieldsToForegroundPressure pins the CPU-yield seam
// deterministically: with MaxInflight 2, any inflight count >= 1 makes
// hotYield true, so a pending rebuild may not run — the yields counter
// moves and no entry lands — until the pressure drains.
func TestHotRefreshYieldsToForegroundPressure(t *testing.T) {
	s, tier := hotServer(t)
	s.SetLimits(Limits{MaxInflight: 2})

	// Hold foreground pressure at the yield watermark with a real slot.
	rel, err := s.fairq.Acquire(context.Background(), s.solo)
	if err != nil {
		t.Fatal(err)
	}
	tier.Touch(7)
	tier.Touch(7)
	deadline := time.Now().Add(10 * time.Second)
	for tier.Stats().Yields == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("refresher never yielded under inflight pressure: %+v", tier.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := tier.Stats(); st.Entries != 0 {
		t.Fatalf("entry built while the refresher should be yielding: %+v", st)
	}

	rel() // pressure gone: the pending build lands
	waitHotHeader(t, s, "/single-source?u=7")
}

// TestHotRefreshNeverStarvesForeground is the PR 3 MaxInflight pattern
// turned around: with the tier armed and a write storm forcing constant
// invalidation + rebuild, foreground queries under the inflight limit
// must NEVER see an admission 503 — refresh work runs below the HTTP
// layer and holds no admission slot.
func TestHotRefreshNeverStarvesForeground(t *testing.T) {
	s, tier := hotServer(t)
	s.SetLimits(Limits{MaxInflight: 2})
	waitHotHeader(t, s, "/single-source?u=7")

	stop := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Each write touches node 7's shard, keeping the refresher busy
			// re-promoting it for the whole storm.
			target := fmt.Sprintf("/edges?u=7&v=%d", 100+i%200)
			method := http.MethodPost
			if (i/200)%2 == 1 {
				method = http.MethodDelete
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		}
	}()

	// Sequential foreground queries occupy at most 1 of 2 slots; any 503
	// here means background work leaked into admission.
	for i := 0; i < 200; i++ {
		u := i % 50
		rec, body := do(t, s, http.MethodGet, fmt.Sprintf("/single-source?u=%d", u))
		if rec.Code == http.StatusServiceUnavailable {
			t.Fatalf("foreground query %d rejected during refresh storm: %v", i, body)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("foreground query %d: status %d (%v)", i, rec.Code, body)
		}
	}
	close(stop)
	<-stormDone
	if st := tier.Stats(); st.Invalidations == 0 {
		t.Fatalf("storm did not exercise invalidation: %+v", st)
	}
}

// TestCacheCarryHotPinCountedOnce: the hot tier pins its answers in the
// result cache, so each answer is held and counted once — cachedVectors
// counts the unpinned answers and hotEntries the pinned ones. A write
// into a hot source drops its pinned answer; the next live miss on it
// installs its answer pinned, so the refresher pins it without a build
// and hotBuilds does not move.
func TestCacheCarryHotPinCountedOnce(t *testing.T) {
	s, tier := hotServer(t)
	s.SetLimits(Limits{MaxInflight: 2})
	counts := func() (cached, hot, builds float64) {
		t.Helper()
		_, st := do(t, s, http.MethodGet, "/stats")
		return st["cachedVectors"].(float64), st["hotEntries"].(float64), st["hotBuilds"].(float64)
	}
	waitHotHeader(t, s, "/single-source?u=7")
	if rec, body := do(t, s, http.MethodGet, "/single-source?u=11"); rec.Code != http.StatusOK {
		t.Fatalf("cold query: status %d (%v)", rec.Code, body)
	}
	if cached, hot, _ := counts(); cached != 1 || hot != 1 {
		t.Fatalf("cachedVectors %v, hotEntries %v: want hot source 7 counted once, as pinned, and cold source 11 as cached", cached, hot)
	}

	// A held slot keeps the refresher yielding, so only the live miss
	// below can bring 7's answer back.
	rel, err := s.fairq.Acquire(context.Background(), s.solo)
	if err != nil {
		t.Fatal(err)
	}
	if rec, body := do(t, s, http.MethodPost, "/edges?u=399&v=7"); rec.Code != http.StatusOK {
		t.Fatalf("write: status %d (%v)", rec.Code, body)
	}
	cachedAfterWrite, hot, builds := counts()
	if hot != 0 {
		t.Fatalf("hotEntries %v after a write into the hot source, want 0", hot)
	}
	if rec, _ := do(t, s, http.MethodGet, "/single-source?u=7"); rec.Header().Get(tierHeader) != "live" {
		t.Fatalf("first query after the write served from %q, want live", rec.Header().Get(tierHeader))
	}
	if cached, hot, _ := counts(); cached != cachedAfterWrite || hot != 1 {
		t.Fatalf("after the live miss: cachedVectors %v (was %v), hotEntries %v: want the answer pinned, not cached beside it", cached, cachedAfterWrite, hot)
	}
	rel()

	// Give the refresher a few rounds with the slot free: 7 holds a
	// pinned answer, so it has nothing to build.
	time.Sleep(300 * time.Millisecond)
	if _, hot, after := counts(); hot != 1 || after != builds {
		t.Fatalf("hotEntries %v, hotBuilds %v -> %v: want the refilled answer pinned without a build", hot, builds, after)
	}
	if st := tier.Stats(); st.StaleEntries != 0 {
		t.Fatalf("refilled source still counted stale: %+v", st)
	}
	waitHotHeader(t, s, "/single-source?u=7")
}
