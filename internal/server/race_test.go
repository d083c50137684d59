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
)

// TestConcurrentQueriesDuringEdgeBatch drives the lock-free serving path
// under churn: query goroutines hammer /topk, /single-source and /stats
// while a writer streams /edges/batch updates. Run with -race (CI does)
// this is the proof that snapshot publication fully decouples reads from
// writes; functionally it asserts every query succeeds mid-batch and the
// final version converges.
func TestConcurrentQueriesDuringEdgeBatch(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 17)
	srv := New(g, core.Options{EpsA: 0.3, Seed: 1, Workers: 2, NumWalks: 120}, 8, 50)
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

	// Readers: mixed query traffic, no locks anywhere on their path.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{
				fmt.Sprintf("/topk?u=%d&k=5", r*31%300),
				fmt.Sprintf("/single-source?u=%d", r*53%300),
				"/stats",
				fmt.Sprintf("/pair?u=%d&v=%d", r*7%300, r*11%300),
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

	// Writer: stream add/remove batches, each one atomically published.
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

	// After the dust settles the published snapshot matches the store.
	code, body, err := get("/stats")
	if err != nil || code != http.StatusOK {
		t.Fatalf("final stats: code %d err %v", code, err)
	}
	if v := body["graphVersion"].(float64); uint64(v) != srv.st.Version() {
		t.Fatalf("published version %v != store version %d", v, srv.st.Version())
	}
}

// TestSingleEdgePublishesImmediately asserts a lone POST /edges is
// visible to the very next query (no cache staleness, no missed
// publication).
func TestSingleEdgePublishesImmediately(t *testing.T) {
	g := gen.ErdosRenyi(40, 100, 2)
	srv := New(g, core.Options{EpsA: 0.3, Seed: 1, NumWalks: 40}, 4, 50)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stats := func() uint64 {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return uint64(body["graphVersion"].(float64))
	}
	before := stats()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/edges?u=1&v=2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /edges: status %d", resp.StatusCode)
	}
	if after := stats(); after != before+1 {
		t.Fatalf("version %d -> %d, want +1 published immediately", before, after)
	}
}
