package server

// Query tracing surface: the per-request sampling decision, the
// X-ProbeSim-Trace-Id response header, ?trace=1 opt-in inlining, and the
// /debug/queries ring of recently completed traces. The recorder itself
// lives in internal/qtrace; this file is the HTTP-facing glue that
// admission.go's middleware calls around every non-meta request.

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"probesim/internal/qtrace"
)

// traceHeader carries the request's trace id on every response while a
// tracer is armed, sampled or not — so a client seeing a slow answer can
// quote an id that correlates with the server's slow-query log.
const traceHeader = "X-ProbeSim-Trace-Id"

// SetTracer arms query tracing: sampling, the slow-query log, span
// recording through the whole query lifecycle, and /debug/queries.
// Call before serving (like SetLimits, it is not synchronized with
// requests). A nil tracer (the default) keeps every hook disabled.
func (s *Server) SetTracer(t *qtrace.Tracer) { s.tracer = t }

// forceTrace reports the ?trace=1 opt-in. It scans the raw query instead
// of parsing it: this runs on every request, sampled or not.
func forceTrace(r *http.Request) bool {
	q := r.URL.RawQuery
	i := strings.Index(q, "trace=1")
	if i < 0 {
		return false
	}
	// Match a whole key=value pair, not a suffix like backtrace=1.
	if i > 0 && q[i-1] != '&' {
		return false
	}
	return len(q) == i+7 || q[i+7] == '&'
}

// beginTrace makes the per-request trace decision for one admitted route:
// a fresh 128-bit id (stamped on the response header immediately, before
// the handler can fail), and a recording trace when sampling or ?trace=1
// says so. Meta routes and an unarmed tracer return a zero id.
func (s *Server) beginTrace(w http.ResponseWriter, r *http.Request, cl routeClass) (*qtrace.Trace, qtrace.TraceID) {
	if s.tracer == nil || cl == classMeta {
		return nil, qtrace.TraceID{}
	}
	id := qtrace.NewID()
	w.Header().Set(traceHeader, id.String())
	return s.tracer.Begin(id, forceTrace(r)), id
}

// finishTrace completes the request's trace: files it with the tracer
// (slow-query log + ring, tenant-annotated so a burn spike greps
// straight to its traces) and feeds the per-stage duration histograms
// behind /metrics. A zero id means beginTrace declined (meta route or
// tracing disabled) and nothing happens.
func (s *Server) finishTrace(tr *qtrace.Trace, id qtrace.TraceID, route, tenantName string, status int, start time.Time, dur time.Duration) {
	if id.IsZero() {
		return
	}
	if status == 0 {
		status = http.StatusOK
	}
	s.tracer.FinishTagged(tr, id, route, tenantName, status, start, dur)
	if tr == nil {
		return
	}
	totals := tr.StageTotals()
	for st := qtrace.Stage(0); st < qtrace.NumStages; st++ {
		if totals[st].N > 0 {
			s.stageHist[st].Observe(float64(totals[st].NS) / 1e9)
		}
	}
}

// addTrace inlines the span tree recorded so far into a query response
// body when the client opted in with ?trace=1. Sampled-but-not-forced
// requests keep their spans server-side (/debug/queries) — the inline
// form is the explicit debugging contract, not a default payload tax.
func addTrace(r *http.Request, body map[string]any) {
	tr, _ := qtrace.FromContext(r.Context())
	if tr == nil || !tr.Forced() {
		return
	}
	body["traceId"] = tr.ID().String()
	body["trace"] = tr.Snapshot()
}

// handleDebugQueries serves the ring of recently completed sampled
// traces, oldest first. With tracing disabled it reports the fact
// instead of an empty mystery.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	if s.tracer == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false, "queries": []any{}})
		return
	}
	rec := s.tracer.Recent()
	if rec == nil {
		rec = []*qtrace.Done{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"started": s.tracer.Started(),
		"sampled": s.tracer.Sampled(),
		"slow":    s.tracer.SlowCount(),
		"queries": rec,
	})
}
