package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/hotidx"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// TestCacheCarryAcrossUntouchedWrite pins the result cache's node-level
// invalidation: a write whose endpoints lie outside a cached answer's
// read set leaves it servable, and a write into the source drops it.
func TestCacheCarryAcrossUntouchedWrite(t *testing.T) {
	g := gen.PreferentialAttachment(2000, 4, 3)
	s := New(g, core.Options{Seed: 1, EpsA: 0.2}, 8, 50)
	const src = graph.NodeID(5)
	target := fmt.Sprintf("/topk?u=%d&k=5", src)
	if rec, body := do(t, s, http.MethodGet, target); rec.Code != http.StatusOK {
		t.Fatalf("query: status %d (%v)", rec.Code, body)
	}

	_, reads, err := core.SingleSourceTracked(context.Background(), s.ex.Snapshot(), src, s.opt)
	if err != nil || reads == nil {
		t.Fatalf("reference read set: %v (unbounded %v)", err, reads == nil)
	}
	var outside []graph.NodeID
	for v := graph.NodeID(1999); len(outside) < 2; v-- {
		if _, in := slices.BinarySearch(reads, v); !in {
			outside = append(outside, v)
		}
	}
	if rec, body := do(t, s, http.MethodPost, fmt.Sprintf("/edges?u=%d&v=%d", outside[0], outside[1])); rec.Code != http.StatusOK {
		t.Fatalf("write: status %d (%v)", rec.Code, body)
	}
	do(t, s, http.MethodGet, target)
	if cs := s.q.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("after a write outside the read set: %+v, want the answer carried (1 hit, 1 miss)", cs)
	}

	if rec, body := do(t, s, http.MethodPost, fmt.Sprintf("/edges?u=%d&v=%d", outside[0], src)); rec.Code != http.StatusOK {
		t.Fatalf("write: status %d (%v)", rec.Code, body)
	}
	do(t, s, http.MethodGet, target)
	cs := s.q.CacheStats()
	if cs.Hits != 1 || cs.Misses != 2 || cs.Invalidations.Touched != 1 {
		t.Fatalf("after a write into the source: %+v, want it dropped as touched and recomputed", cs)
	}
}

// TestServedAnswersExactUnderChurn plays random add/remove batches
// through /edges/batch against a server with the hot tier on, with Zipf
// reads in between, and requires every /topk, /single-source and /pair
// body to equal, byte for byte, the body built from a fresh kernel run
// on the current snapshot — whichever of the hot tier, the result cache
// or a live run answered. Cached answers must carry across writes, so
// the test cannot pass with an emptied cache.
func TestServedAnswersExactUnderChurn(t *testing.T) {
	const n = 2000
	g := gen.PreferentialAttachment(n, 4, 29)
	opt := core.Options{Seed: 1, EpsA: 0.2}
	s := NewSharded(shard.NewStore(g, 64, 0), opt, 64, 100)
	tier := s.EnableHotTier(16, 5*time.Second)
	t.Cleanup(tier.Close)

	ctx := context.Background()
	rng := xrand.New(30)
	zipf := hotidx.NewZipf(n, 1.1, 31)
	ref := map[graph.NodeID]*core.Ranked{} // fresh answers on the current snapshot
	lastRead := map[graph.NodeID]int{}
	var added []graph.EdgeOp
	carried, tiers := 0, map[string]int{}
	for round := 1; round <= 200; round++ {
		var ops []batchOp
		for len(ops) < 4 {
			if len(added) > 0 && rng.Float64() < 0.4 {
				i := rng.Intn(len(added))
				ops = append(ops, batchOp{Op: "remove", U: added[i].U, V: added[i].V})
				added = slices.Delete(added, i, i+1)
				continue
			}
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				ops = append(ops, batchOp{Op: "add", U: u, V: v})
				added = append(added, graph.EdgeOp{U: u, V: v})
			}
		}
		raw, _ := json.Marshal(ops)
		req := httptest.NewRequest(http.MethodPost, "/edges/batch", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: batch status %d: %s", round, rec.Code, rec.Body)
		}
		clear(ref)

		for i := 0; i < 5; i++ {
			u := zipf.Next()
			want, ok := ref[u]
			if !ok {
				var err error
				if want, err = core.SingleSourceRanked(ctx, s.ex.Snapshot(), u, opt); err != nil {
					t.Fatal(err)
				}
				ref[u] = want
			}
			var target string
			var body map[string]any
			switch i % 3 {
			case 0:
				target = fmt.Sprintf("/topk?u=%d&k=10", u)
				res := want.TopK(10)
				out := make([]scoredNodeJSON, len(res))
				for j, x := range res {
					out[j] = scoredNodeJSON{Node: x.Node, Score: x.Score}
				}
				body = map[string]any{"query": u, "results": out}
			case 1:
				target = fmt.Sprintf("/single-source?u=%d", u)
				top := want.Top[:min(len(want.Top), s.limit)]
				scores := make(map[string]float64, len(top))
				for _, x := range top {
					scores[strconv.Itoa(int(x.Node))] = x.Score
				}
				body = map[string]any{"query": u, "nonzero": len(want.Top), "scores": scores}
			default:
				v := graph.NodeID(rng.Intn(n))
				if len(want.Top) > 0 && rng.Float64() < 0.5 {
					v = want.Top[rng.Intn(len(want.Top))].Node
				}
				target = fmt.Sprintf("/pair?u=%d&v=%d", u, v)
				body = map[string]any{"u": u, "v": v, "score": want.Score(v)}
			}
			var exp bytes.Buffer
			if err := json.NewEncoder(&exp).Encode(body); err != nil {
				t.Fatal(err)
			}

			hits := s.q.CacheStats().Hits
			req := httptest.NewRequest(http.MethodGet, target, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d %s: status %d: %s", round, target, rec.Code, rec.Body)
			}
			tier := rec.Header().Get(tierHeader)
			if s.q.CacheStats().Hits > hits {
				tier = "cache"
				if lastRead[u] < round {
					carried++ // cached before this round's write
				}
			}
			tiers[tier]++
			if !bytes.Equal(rec.Body.Bytes(), exp.Bytes()) {
				t.Fatalf("round %d %s served by %s:\n got %s\nwant %s", round, target, tier, rec.Body, exp.Bytes())
			}
			lastRead[u] = round
		}
	}
	t.Logf("answers by tier %v; %d cache hits carried across a write; cache %+v; hot %+v",
		tiers, carried, s.q.CacheStats(), tier.Stats())
	if carried == 0 {
		t.Fatal("no cached answer carried across a write")
	}
}
