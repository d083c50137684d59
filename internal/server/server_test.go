package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"probesim/internal/core"
	"probesim/internal/graph"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	// The diamond: 0 -> {1,2} -> 3; s(1,2) = c.
	g, err := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, core.Options{EpsA: 0.02, Seed: 1}, 8, 50)
}

// servedHasEdge reports whether the graph s serves — its published
// snapshot — holds the edge u -> v. The server copies the graph it is
// built from, so writes are observable only here.
func servedHasEdge(s *Server, u, v graph.NodeID) bool {
	return slices.Contains(s.ex.Snapshot().OutNeighbors(u), v)
}

func do(t *testing.T, s *Server, method, target string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s %s: invalid JSON %q", method, target, rec.Body.String())
	}
	return rec, body
}

func TestTopKEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := do(t, s, http.MethodGet, "/topk?u=1&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	first := results[0].(map[string]any)
	if first["node"].(float64) != 2 {
		t.Fatalf("top-1 = %v, want node 2", first)
	}
	if sc := first["score"].(float64); sc < 0.55 || sc > 0.65 {
		t.Fatalf("s(1,2) = %v, want ~0.6", sc)
	}
}

func TestSingleSourceEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := do(t, s, http.MethodGet, "/single-source?u=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	scores := body["scores"].(map[string]any)
	if sc := scores["2"].(float64); sc < 0.55 || sc > 0.65 {
		t.Fatalf("s(1,2) = %v", sc)
	}
	if _, hasSelf := scores["1"]; hasSelf {
		t.Fatal("query node leaked into the score map")
	}
}

func TestEdgeUpdateInvalidates(t *testing.T) {
	s := testServer(t)
	_, before := do(t, s, http.MethodGet, "/topk?u=1&k=1")
	firstNode := before["results"].([]any)[0].(map[string]any)["node"].(float64)
	if firstNode != 2 {
		t.Fatalf("precondition: top-1 = %v", firstNode)
	}
	// Remove 0->2: nodes 1 and 2 no longer share an in-neighbor.
	rec, body := do(t, s, http.MethodDelete, "/edges?u=0&v=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete failed: %v", body)
	}
	if servedHasEdge(s, 0, 2) {
		t.Fatal("edge not removed")
	}
	_, after := do(t, s, http.MethodGet, "/single-source?u=1")
	if _, still := after["scores"].(map[string]any)["2"]; still {
		t.Fatalf("s(1,2) should be 0 after removing the shared parent: %v", after)
	}
}

func TestAddEdgeEndpoint(t *testing.T) {
	s := testServer(t)
	rec, body := do(t, s, http.MethodPost, "/edges?u=3&v=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("add failed: %v", body)
	}
	if !servedHasEdge(s, 3, 0) {
		t.Fatal("edge not added")
	}
	if body["version"].(float64) <= 0 {
		t.Fatal("version not reported")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	do(t, s, http.MethodGet, "/topk?u=1&k=1")
	do(t, s, http.MethodGet, "/topk?u=1&k=2") // cache hit (same vector)
	rec, body := do(t, s, http.MethodGet, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	if body["nodes"].(float64) != 4 {
		t.Fatalf("stats = %v", body)
	}
	if body["cacheHits"].(float64) < 1 {
		t.Fatalf("expected a cache hit: %v", body)
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		method, target string
		wantStatus     int
	}{
		{http.MethodGet, "/topk?u=99", http.StatusBadRequest},
		{http.MethodGet, "/topk?u=abc", http.StatusBadRequest},
		{http.MethodGet, "/topk", http.StatusBadRequest},
		{http.MethodGet, "/topk?u=1&k=0", http.StatusBadRequest},
		{http.MethodGet, "/topk?u=1&k=999999", http.StatusBadRequest},
		{http.MethodPost, "/topk?u=1", http.StatusMethodNotAllowed},
		{http.MethodGet, "/single-source?u=-1", http.StatusBadRequest},
		{http.MethodPut, "/edges?u=0&v=1", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/edges?u=3&v=0", http.StatusBadRequest}, // no such edge
		{http.MethodPost, "/edges?u=1&v=1", http.StatusBadRequest},   // self loop
		{http.MethodPost, "/stats", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		rec, _ := do(t, s, c.method, c.target)
		if rec.Code != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.target, rec.Code, c.wantStatus)
		}
	}
}

// Concurrent queries against concurrent updates must be race-free (run
// with -race) and never return malformed answers.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch w % 2 {
				case 0:
					rec, _ := do2(s, http.MethodGet, fmt.Sprintf("/topk?u=%d&k=2", i%4))
					if rec.Code != http.StatusOK {
						t.Errorf("query failed: %d", rec.Code)
						return
					}
				case 1:
					do2(s, http.MethodPost, "/edges?u=3&v=0")
					do2(s, http.MethodDelete, "/edges?u=3&v=0")
				}
			}
		}(w)
	}
	wg.Wait()
}

func do2(s *Server, method, target string) (*httptest.ResponseRecorder, string) {
	req := httptest.NewRequest(method, target, strings.NewReader(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}
