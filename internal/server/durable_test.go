package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"probesim/internal/core"
	"probesim/internal/graph"
	"probesim/internal/persist"
	"probesim/internal/wal"
)

func durableServer(t *testing.T, dir string, g *graph.Graph) (*Server, func()) {
	t.Helper()
	bootstrap := func() (*graph.Graph, error) {
		if g == nil {
			t.Fatal("bootstrap called on a recoverable dir")
		}
		return g, nil
	}
	st, lg, _, err := persist.OpenStore(dir, 4, 0, wal.Options{Sync: wal.SyncAlways}, bootstrap)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(st, core.Options{EpsA: 0.3, Delta: 0.05, Seed: 5, Workers: 2}, 8, 50)
	s.SetWAL(lg)
	return s, func() { lg.Close() }
}

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	b, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(b)
}

// TestDurableWritePath: every /edges and /edges/batch the server
// acknowledged is in the write-ahead log before the 200 goes out, and a
// recovered server answers queries byte-identically to the one that
// died.
func TestDurableWritePath(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(8))
	g := graph.New(150)
	for i := 0; i < 500; i++ {
		u, v := graph.NodeID(r.Intn(150)), graph.NodeID(r.Intn(150))
		if u != v {
			g.AddEdge(u, v)
		}
	}
	s, closeLog := durableServer(t, dir, g)

	// Mixed single-edge and batch writes through the HTTP surface.
	for i := 0; i < 10; i++ {
		u, v := r.Intn(150), r.Intn(150)
		if u == v {
			continue
		}
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/edges?u=%d&v=%d", u, v), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("edge %d->%d: %d %s", u, v, rec.Code, rec.Body)
		}
	}
	var body strings.Builder
	body.WriteString(`[{"op":"add","u":3,"v":77},{"op":"add","u":77,"v":9},{"op":"remove","u":3,"v":77}]`)
	req := httptest.NewRequest(http.MethodPost, "/edges/batch", strings.NewReader(body.String()))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	// A rejected batch rolls back and does not poison recovery.
	req = httptest.NewRequest(http.MethodPost, "/edges/batch", strings.NewReader(`[{"op":"add","u":1,"v":2},{"op":"remove","u":149,"v":148}]`))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	rejected := rec.Code == http.StatusBadRequest

	// The acknowledged writes are in the log (append-then-apply).
	_, stats := get(t, s, "/stats")
	var sj map[string]any
	if err := json.Unmarshal([]byte(stats), &sj); err != nil {
		t.Fatal(err)
	}
	if sj["walAppends"].(float64) < 11 {
		t.Fatalf("walAppends %v, want >= 11", sj["walAppends"])
	}
	if rejected && sj["walLastBatch"].(float64) != sj["walAppends"].(float64) {
		t.Fatalf("watermark %v != appends %v", sj["walLastBatch"], sj["walAppends"])
	}

	code, want := get(t, s, "/single-source?u=42")
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, want)
	}
	_, wantK := get(t, s, "/topk?u=7&k=10")

	// CRASH: abandon the server (the log is deliberately not closed;
	// SyncAlways already made every acknowledged append durable). closeLog
	// only runs at test cleanup to release the fd.
	defer closeLog()

	s2, closeLog2 := durableServer(t, dir, nil)
	defer closeLog2()
	code, got := get(t, s2, "/single-source?u=42")
	if code != http.StatusOK {
		t.Fatalf("recovered query: %d %s", code, got)
	}
	if got != want {
		t.Fatalf("recovered single-source differs:\n%s\nvs\n%s", got, want)
	}
	if _, gotK := get(t, s2, "/topk?u=7&k=10"); gotK != wantK {
		t.Fatalf("recovered topk differs:\n%s\nvs\n%s", gotK, wantK)
	}
}

// TestDurableAppendFailureIs500: when the write-ahead log refuses a batch
// (here it was closed under the server), nothing is applied: both write
// endpoints answer 500, and the served edge count and the store's batch
// watermark stay where they were.
func TestDurableAppendFailureIs500(t *testing.T) {
	s, closeLog := durableServer(t, t.TempDir(), graph.Toy())
	closeLog()
	edges, watermark := s.ex.Snapshot().NumEdges(), s.st.LastBatch()
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/edges?u=0&v=3", nil),
		httptest.NewRequest(http.MethodPost, "/edges/batch", strings.NewReader(`[{"op":"add","u":0,"v":3}]`)),
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d (%s), want 500", req.URL.Path, rec.Code, rec.Body)
		}
	}
	// Republish whatever the store holds so the check reads its mutable
	// side, not the snapshot from before the failed writes.
	if got := s.ex.Refresh().NumEdges(); got != edges {
		t.Fatalf("edges %d after refused appends, want %d", got, edges)
	}
	if got := s.st.LastBatch(); got != watermark {
		t.Fatalf("watermark %d after refused appends, want %d", got, watermark)
	}
}

// TestWALStatsAndEpsaHistogramOnMetrics: the new observability surfaces
// are present and move.
func TestWALStatsAndEpsaHistogramOnMetrics(t *testing.T) {
	dir := t.TempDir()
	g := graph.Toy()
	s, closeLog := durableServer(t, dir, g)
	defer closeLog()

	if code, _ := get(t, s, "/single-source?u=1"); code != http.StatusOK {
		t.Fatal("query failed")
	}
	req := httptest.NewRequest(http.MethodPost, "/edges?u=0&v=3", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("edge: %d %s", rec.Code, rec.Body)
	}

	_, page := get(t, s, "/metrics")
	for _, want := range []string{
		"probesim_degraded_epsa_bucket{le=\"0.4\"}",
		"probesim_degraded_epsa_count 1",
		"probesim_wal_appends_total 1",
		"probesim_wal_syncs_total",
		"probesim_wal_last_batch 1",
		"probesim_wal_checkpoint_batch 0",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
	// The εa histogram puts the (non-degraded) query in the 0.4 bucket
	// (served εa 0.3) and nothing below 0.2.
	if !strings.Contains(page, "probesim_degraded_epsa_bucket{le=\"0.2\"} 0") {
		t.Fatalf("served-epsa mass below the configured bound:\n%s", page)
	}
}

// TestDegradedQueriesLandInWiderBuckets: a degraded admission observes
// the WIDENED εa, so the histogram separates honest-accuracy service
// from degraded service — the whole point of the metric.
func TestDegradedQueriesLandInWiderBuckets(t *testing.T) {
	g := graph.Toy()
	s := New(g, core.Options{EpsA: 0.2, Seed: 3}, 4, 50)
	s.SetLimits(Limits{MaxInflight: 8, SoftInflight: 1, DegradeFactor: 2})
	// Drive the degraded path exactly as the admission middleware does:
	// a request context carrying the degraded verdict.
	req := httptest.NewRequest(http.MethodGet, "/single-source?u=1", nil)
	req = req.WithContext(context.WithValue(req.Context(), degradedKey{}, true))
	rec := httptest.NewRecorder()
	if ranked, err := s.singleSourceScores(rec, req, 1); err != nil || ranked == nil {
		t.Fatalf("degraded query: %v", err)
	}
	if got := rec.Header().Get("X-ProbeSim-Degraded"); got != "epsa=0.4" {
		t.Fatalf("degraded header %q", got)
	}
	// And one normal admission for contrast.
	if code, _ := get(t, s, "/single-source?u=1"); code != http.StatusOK {
		t.Fatal("query failed")
	}
	_, page := get(t, s, "/metrics")
	for _, want := range []string{
		"probesim_degraded_epsa_sum 0.6", // 0.4 degraded + 0.2 normal
		"probesim_degraded_epsa_count 2",
		"probesim_degraded_epsa_bucket{le=\"0.2\"} 1", // only the normal one
		"probesim_degraded_epsa_bucket{le=\"0.4\"} 2",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, page)
		}
	}
}
