//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so the
// allocation bound below only holds in a normal build.

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
)

// TestTopKRequestsAllocateLessThanOneVector bounds what a warm /topk
// request allocates on each serving tier: a live miss, a result-cache
// hit and a hot-tier hit must each average less than one dense n-vector
// (8n bytes) per request, HTTP plumbing included. Answers stay sparse on
// every tier, so no request builds or copies an n-vector; the kernel's
// scratch comes from the pool.
func TestTopKRequestsAllocateLessThanOneVector(t *testing.T) {
	const n, requests = 20_000, 32
	g := gen.PreferentialAttachment(n, 8, 1)
	opt := core.Options{EpsA: 0.1, Seed: 1}
	var targets []string
	for v := graph.NodeID(0); len(targets) < requests+4; v += 397 {
		if g.InDegree(v%n) > 0 {
			targets = append(targets, fmt.Sprintf("/topk?u=%d&k=10", v%n))
		}
	}
	warm, measured := targets[:4], targets[4:]
	serve := func(s *Server, tier string, targets []string) {
		t.Helper()
		for _, target := range targets {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d (%s)", tier, target, rec.Code, rec.Body.String())
			}
		}
	}
	perRequest := func(s *Server, tier string, targets []string) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve(s, tier, targets)
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(targets))
		t.Logf("%s: %d bytes per request (n = %d)", tier, per, n)
		if per >= 8*n {
			t.Fatalf("%s allocated %d bytes per /topk request, want < 8n = %d", tier, per, 8*n)
		}
	}

	s := NewSharded(shard.NewStore(g, 16, 0), opt, len(targets), 100)
	serve(s, "warm-up", warm) // fills the scratch pool
	perRequest(s, "live miss", measured)
	perRequest(s, "cache hit", measured)
	if cs := s.q.CacheStats(); cs.Misses != int64(len(targets)) || cs.Hits != int64(len(measured)) {
		t.Fatalf("cache counters %+v: the tiers measured were not the tiers named", cs)
	}

	hs := NewSharded(shard.NewStore(g, 16, 0), opt, len(targets), 100)
	tier := hs.EnableHotTier(len(measured), 5*time.Second)
	t.Cleanup(tier.Close)
	for _, target := range measured {
		waitHotHeader(t, hs, target)
	}
	before := tier.Stats().Hits
	perRequest(hs, "hot hit", measured)
	if hits := tier.Stats().Hits - before; hits != int64(len(measured)) {
		t.Fatalf("%d of %d measured requests were hot hits", hits, len(measured))
	}
}
