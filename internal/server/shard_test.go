package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/shard"
)

// TestServerAnswersIndependentOfShardCount drives the same request
// sequence through a one-shard server and a 16-shard one and demands
// identical query results — the HTTP-level face of the bit-identical
// guarantee. (Agreement with the monolithic graph itself is pinned at
// kernel level by internal/shard's agreement tests.)
func TestServerAnswersIndependentOfShardCount(t *testing.T) {
	g := gen.PreferentialAttachment(250, 3, 23)
	opt := core.Options{EpsA: 0.3, Seed: 4, Workers: 2, NumWalks: 150}
	one := httptest.NewServer(NewSharded(shard.NewStore(g, 1, 2), opt, 8, 50))
	defer one.Close()
	sharded := httptest.NewServer(NewSharded(shard.NewStore(g, 16, 2), opt, 8, 50))
	defer sharded.Close()

	fetch := func(base, path string) map[string]any {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d body %v", path, resp.StatusCode, body)
		}
		return body
	}
	post := func(base, path string, payload []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}

	paths := []string{
		"/topk?u=7&k=5",
		"/single-source?u=19",
		"/pair?u=3&v=11",
		"/components",
		"/join/topk?k=5",
	}
	check := func() {
		t.Helper()
		for _, p := range paths {
			a, b := fetch(one.URL, p), fetch(sharded.URL, p)
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if string(aj) != string(bj) {
				t.Fatalf("GET %s diverges:\n1 shard:   %s\n16 shards: %s", p, aj, bj)
			}
		}
	}
	check()

	// Mutate both through the batch endpoint and re-check.
	ops, _ := json.Marshal([]map[string]any{
		{"op": "add", "u": 1, "v": 240},
		{"op": "add", "u": 240, "v": 2},
		{"op": "remove", "u": 1, "v": 240},
	})
	post(one.URL, "/edges/batch", ops)
	post(sharded.URL, "/edges/batch", ops)
	check()

	// The sharded /stats carries the publication counters.
	stats := fetch(sharded.URL, "/stats")
	for _, key := range []string{"shards", "shardPublications", "shardsRebuilt", "shardsReused"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("sharded /stats missing %q: %v", key, stats)
		}
	}
	if reused := stats["shardsReused"].(float64); reused == 0 {
		t.Fatalf("expected shard reuse after a small batch, got stats %v", stats)
	}
}

// TestShardedConcurrentQueriesDuringEdgeBatch is the -race proof for the
// sharded path: readers on /topk, /single-source, /components and /stats
// run lock-free against the composite snapshot while a writer streams
// batches that republish only touched shards.
func TestShardedConcurrentQueriesDuringEdgeBatch(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 17)
	st := shard.NewStore(g, 32, 2)
	srv := NewSharded(st, core.Options{EpsA: 0.3, Seed: 1, Workers: 2, NumWalks: 120}, 8, 50)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const batches = 25
	var wg sync.WaitGroup
	var stop atomic.Bool

	get := func(path string) (int, map[string]any, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return resp.StatusCode, nil, err
		}
		return resp.StatusCode, body, nil
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{
				fmt.Sprintf("/topk?u=%d&k=5", r*31%300),
				fmt.Sprintf("/single-source?u=%d", r*53%300),
				"/stats",
				"/components",
			}
			for i := 0; !stop.Load(); i++ {
				code, body, err := get(paths[i%len(paths)])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if code != http.StatusOK {
					t.Errorf("reader %d: status %d, body %v", r, code, body)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for b := 0; b < batches; b++ {
			u := (b * 37) % 299
			ops := []map[string]any{
				{"op": "add", "u": u, "v": u + 1},
				{"op": "add", "u": (u + 5) % 300, "v": (u + 9) % 300},
				{"op": "remove", "u": u, "v": u + 1},
			}
			if ops[1]["u"] == ops[1]["v"] {
				ops = ops[:1+copy(ops[1:], ops[2:])]
			}
			payload, _ := json.Marshal(ops)
			resp, err := http.Post(ts.URL+"/edges/batch", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("batch %d: status %d, body %v", b, resp.StatusCode, body)
				return
			}
		}
	}()
	wg.Wait()

	code, body, err := get("/stats")
	if err != nil || code != http.StatusOK {
		t.Fatalf("final stats: code %d err %v", code, err)
	}
	if v := body["graphVersion"].(float64); uint64(v) != st.Version() {
		t.Fatalf("published version %v != store version %d", v, st.Version())
	}
	// The whole point: churn must not have paid full rebuilds. Every batch
	// touches at most 6 of the 32+ shards (3 ops x 2 endpoints).
	ss := st.Stats()
	if ss.ShardsRebuilt >= ss.ShardsReused {
		t.Fatalf("per-shard publication ineffective: rebuilt %d vs reused %d", ss.ShardsRebuilt, ss.ShardsReused)
	}
}
