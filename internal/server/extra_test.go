package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"probesim/internal/core"
	"probesim/internal/gen"
)

func newExtraServer(t *testing.T) *httptest.Server {
	t.Helper()
	g := gen.ErdosRenyi(40, 200, 3)
	srv := New(g, core.Options{EpsA: 0.1, Seed: 1}, 16, 50)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return out
}

func TestPairEndpoint(t *testing.T) {
	ts := newExtraServer(t)
	out := getJSON(t, ts.URL+"/pair?u=1&v=2", http.StatusOK)
	score, ok := out["score"].(float64)
	if !ok {
		t.Fatalf("no score in %v", out)
	}
	if score < 0 || score > 1 {
		t.Fatalf("score %v outside [0, 1]", score)
	}
	// Self pair through the same path.
	self := getJSON(t, ts.URL+"/pair?u=3&v=3", http.StatusOK)
	if self["score"].(float64) != 1 {
		t.Fatalf("s(3,3) = %v, want 1", self["score"])
	}
}

func TestPairEndpointErrors(t *testing.T) {
	ts := newExtraServer(t)
	getJSON(t, ts.URL+"/pair?u=1", http.StatusBadRequest)
	getJSON(t, ts.URL+"/pair?u=1&v=9999", http.StatusBadRequest)
	resp, err := http.Post(ts.URL+"/pair?u=1&v=2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /pair: status %d, want 405", resp.StatusCode)
	}
}

func TestJoinTopKEndpoint(t *testing.T) {
	ts := newExtraServer(t)
	out := getJSON(t, ts.URL+"/join/topk?k=5", http.StatusOK)
	pairs, ok := out["pairs"].([]any)
	if !ok {
		t.Fatalf("no pairs in %v", out)
	}
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs, want 5", len(pairs))
	}
	prev := 2.0
	for _, p := range pairs {
		m := p.(map[string]any)
		s := m["score"].(float64)
		if s > prev {
			t.Fatal("pairs not sorted by descending score")
		}
		prev = s
		if m["u"].(float64) >= m["v"].(float64) {
			t.Fatal("pair not normalized to u < v")
		}
	}
	getJSON(t, ts.URL+"/join/topk?k=0", http.StatusBadRequest)
	getJSON(t, ts.URL+"/join/topk?k=99999", http.StatusBadRequest)
}

func TestProgressiveTopKEndpoint(t *testing.T) {
	ts := newExtraServer(t)
	out := getJSON(t, ts.URL+"/progressive-topk?u=1&k=3", http.StatusOK)
	results, ok := out["results"].([]any)
	if !ok || len(results) != 3 {
		t.Fatalf("results = %v, want 3 entries", out["results"])
	}
	walks, ok := out["walks"].(float64)
	if !ok || walks < 1 {
		t.Fatalf("walks = %v, want >= 1", out["walks"])
	}
	if budget := out["budgetWalks"].(float64); walks > budget {
		t.Fatalf("walks %v exceed budget %v", walks, budget)
	}
	if _, ok := out["separated"].(bool); !ok {
		t.Fatalf("separated missing: %v", out)
	}
	getJSON(t, ts.URL+"/progressive-topk?u=1&k=0", http.StatusBadRequest)
	getJSON(t, ts.URL+"/progressive-topk?k=3", http.StatusBadRequest)
}

func TestComponentsEndpoint(t *testing.T) {
	ts := newExtraServer(t)
	out := getJSON(t, ts.URL+"/components", http.StatusOK)
	for _, key := range []string{"stronglyConnected", "weaklyConnected", "largestSCC", "largestWCC"} {
		v, ok := out[key].(float64)
		if !ok || v < 1 {
			t.Fatalf("%s = %v, want >= 1", key, out[key])
		}
	}
	if out["largestSCC"].(float64) > out["largestWCC"].(float64) {
		t.Fatal("largest SCC cannot exceed largest WCC")
	}
}

func TestEdgeBatchApplies(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 7)
	srv := New(g, core.Options{EpsA: 0.2, Seed: 1}, 4, 50)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := srv.ex.Snapshot().NumEdges()
	var buf bytes.Buffer
	// Use node pairs guaranteed absent: ErdosRenyi(20, 40) leaves most of
	// the 380 possible edges free; pick until two non-edges found.
	type op struct {
		Op string `json:"op"`
		U  int    `json:"u"`
		V  int    `json:"v"`
	}
	var ops []op
	for u := 0; u < 20 && len(ops) < 2; u++ {
		for v := 0; v < 20 && len(ops) < 2; v++ {
			if u != v && !servedHasEdge(srv, int32(u), int32(v)) {
				ops = append(ops, op{"add", u, v})
			}
		}
	}
	if err := json.NewEncoder(&buf).Encode(ops); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/edges/batch", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if got := srv.ex.Snapshot().NumEdges(); got != before+2 {
		t.Fatalf("edges = %d, want %d", got, before+2)
	}
}

func TestEdgeBatchRollsBack(t *testing.T) {
	g := gen.ErdosRenyi(20, 40, 9)
	srv := New(g, core.Options{EpsA: 0.2, Seed: 1}, 4, 50)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := srv.ex.Snapshot().NumEdges()
	// Find a non-edge for the first (valid) op; second op removes a
	// missing edge and must fail, rolling back the first.
	var u, v int32 = -1, -1
	for a := int32(0); a < 20 && u < 0; a++ {
		for b := int32(0); b < 20; b++ {
			if a != b && !servedHasEdge(srv, a, b) {
				u, v = a, b
				break
			}
		}
	}
	body := bytes.NewBufferString(fmt.Sprintf(
		`[{"op":"add","u":%d,"v":%d},{"op":"remove","u":%d,"v":%d}]`,
		u, v, u, (v+1)%20))
	resp, err := http.Post(ts.URL+"/edges/batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch status %d, want 400", resp.StatusCode)
	}
	// A rejected batch publishes nothing; republish whatever the store
	// holds so the check reads its mutable side, not the old snapshot.
	if got := srv.ex.Refresh().NumEdges(); got != before {
		t.Fatalf("edges = %d after rollback, want %d", got, before)
	}
	if servedHasEdge(srv, u, v) {
		t.Fatal("first op not rolled back")
	}
}

func TestEdgeBatchValidation(t *testing.T) {
	ts := newExtraServer(t)
	resp, err := http.Post(ts.URL+"/edges/batch", "application/json", bytes.NewBufferString("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/edges/batch", "application/json",
		bytes.NewBufferString(`[{"op":"frobnicate","u":1,"v":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/edges/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}
}
