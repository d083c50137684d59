package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
)

// tierCase is one request and the body it must return, rendered from a
// dense reference vector the way the handlers render their answers.
type tierCase struct {
	target string
	want   func(est []float64) map[string]any
}

// tierCases covers the three similarity routes on source u: /topk with
// k = 10 and with k past the answer's non-zero count (the zero fill),
// /single-source (the limit cut and the non-zero count), and /pair for
// v = u, for the strongest v, and for a v whose score is zero.
func tierCases(u graph.NodeID, nonzero, limit int, strongest, zero graph.NodeID) []tierCase {
	topk := func(k int) tierCase {
		return tierCase{fmt.Sprintf("/topk?u=%d&k=%d", u, k), func(est []float64) map[string]any {
			res := core.SelectTopK(est, u, k)
			out := make([]scoredNodeJSON, len(res))
			for i, r := range res {
				out[i] = scoredNodeJSON{Node: r.Node, Score: r.Score}
			}
			return map[string]any{"query": u, "results": out}
		}}
	}
	pair := func(v graph.NodeID) tierCase {
		return tierCase{fmt.Sprintf("/pair?u=%d&v=%d", u, v), func(est []float64) map[string]any {
			return map[string]any{"u": u, "v": v, "score": est[v]}
		}}
	}
	singleSource := tierCase{fmt.Sprintf("/single-source?u=%d", u), func(est []float64) map[string]any {
		var top []core.ScoredNode
		for _, r := range core.SelectTopK(est, u, len(est)) {
			if r.Score > 0 {
				top = append(top, r)
			}
		}
		n := len(top)
		m := make(map[string]float64)
		for _, r := range top[:min(n, limit)] {
			m[fmt.Sprint(r.Node)] = r.Score
		}
		return map[string]any{"query": u, "nonzero": n, "scores": m}
	}}
	return []tierCase{topk(10), topk(nonzero + 7), singleSource, pair(u), pair(strongest), pair(zero)}
}

// checkTierBody asserts that rec's body is byte-identical to the
// case's reference body over est.
func checkTierBody(t *testing.T, tier string, c tierCase, rec *httptest.ResponseRecorder, est []float64) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d (%s)", tier, c.target, rec.Code, rec.Body.String())
	}
	ref := httptest.NewRecorder()
	writeJSON(ref, http.StatusOK, c.want(est))
	if got, want := rec.Body.String(), ref.Body.String(); got != want {
		t.Fatalf("%s %s: body\n%s\nwant the dense reference's\n%s", tier, c.target, got, want)
	}
}

// TestAnswersMatchDenseReferenceAcrossTiers pins every serving tier's
// sparse answers to the dense path: for a live miss, a result-cache hit,
// a hot-tier hit and a degraded admission, each response body must equal
// the one built from core.SingleSource + core.SelectTopK on the same
// snapshot (at the degraded εa for the degraded admission), byte for
// byte.
func TestAnswersMatchDenseReferenceAcrossTiers(t *testing.T) {
	const limit = 5
	g := gen.PreferentialAttachment(2000, 4, 7)
	opt := core.Options{Seed: 1, EpsA: 0.2}
	ctx := context.Background()
	newServer := func() *Server { return NewSharded(shard.NewStore(g, 8, 0), opt, 8, limit) }
	const u = graph.NodeID(7)

	s := newServer()
	est, err := core.SingleSource(ctx, s.ex.Snapshot(), u, opt)
	if err != nil {
		t.Fatal(err)
	}
	nonzero, strongest, zero := 0, graph.NodeID(-1), graph.NodeID(-1)
	for v, sc := range est {
		switch {
		case graph.NodeID(v) == u:
		case sc > 0:
			nonzero++
			if strongest < 0 || sc > est[strongest] {
				strongest = graph.NodeID(v)
			}
		case zero < 0:
			zero = graph.NodeID(v)
		}
	}
	if nonzero <= limit || nonzero+7 >= g.NumNodes()-1 || zero < 0 {
		t.Fatalf("source %d has %d non-zero scores: the cases need more than limit %d and room to zero-fill", u, nonzero, limit)
	}
	cases := tierCases(u, nonzero, limit, strongest, zero)

	// A live miss, then the same request as a result-cache hit, each on
	// a fresh server so every case starts cold.
	for _, c := range cases {
		s := newServer()
		for i, tier := range []string{"live miss", "cache hit"} {
			rec, _ := do2(s, http.MethodGet, c.target)
			checkTierBody(t, tier, c, rec, est)
			if cs := s.q.CacheStats(); cs.Misses != 1 || cs.Hits != int64(i) {
				t.Fatalf("%s %s: cache counters %+v", tier, c.target, cs)
			}
		}
	}

	// A hot-tier hit.
	hs := newServer()
	tier := hs.EnableHotTier(8, 5*time.Second)
	t.Cleanup(tier.Close)
	waitHotHeader(t, hs, fmt.Sprintf("/single-source?u=%d", u))
	for _, c := range cases {
		rec, _ := do2(hs, http.MethodGet, c.target)
		if h := rec.Header().Get(tierHeader); h != "hot" {
			t.Fatalf("%s served from %q, want hot", c.target, h)
		}
		checkTierBody(t, "hot hit", c, rec, est)
	}

	// A degraded admission: two held slots put the next query over the
	// soft watermark, and its reference runs at the degraded εa.
	ds := newServer()
	ds.SetLimits(Limits{MaxInflight: 8, SoftInflight: 1, DegradeFactor: 2})
	for range 2 {
		rel, err := ds.fairq.Acquire(ctx, ds.solo)
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
	}
	degraded, err := core.SingleSource(ctx, ds.ex.Snapshot(), u, ds.degradedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		rec, _ := do2(ds, http.MethodGet, c.target)
		if h := rec.Header().Get(degradedHeader); h != "epsa=0.4" {
			t.Fatalf("%s: degraded header %q, want epsa=0.4", c.target, h)
		}
		checkTierBody(t, "degraded", c, rec, degraded)
	}
}
