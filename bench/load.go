package main

// Load generation: one caller issues a workload's ops back to back (a
// closed loop), so every latency is the system's own service time. Open
// loops were tried first: on a 2-CPU host their tail percentiles, which
// add queueing behind random arrival bursts to the service time, spread by
// 16-111% over ten seeds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// epoch is the zero of every timestamp the benchmark records, so client
// records and the traced run's server-side marks share one clock.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// record is one op's timeline (offsets from epoch) and what came back.
type record struct {
	start, done time.Duration
	ok          bool
	answer      []scored   // kept for the ops the correctness gate samples
	spans       spanTotals // traced reads: the program's own span tree
}

// runClosed issues next() ops back to back from one caller until end and
// returns the ops and their records; do(i, o, r) runs op i and stamps
// r.done.
func runClosed(end time.Duration, next func() op, do func(i int, o op, r *record)) ([]op, []record) {
	var ops []op
	var recs []record
	for now() < end {
		o := next()
		r := record{start: now()}
		do(len(ops), o, &r)
		ops = append(ops, o)
		recs = append(recs, r)
	}
	return ops, recs
}

// scored is one top-k entry as the server's JSON has it.
type scored struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// opHeader carries an op's index on traced requests, for the ledger's
// handler wrapper to match server-side times to client records.
const opHeader = "X-Bench-Op"

// httpLoad issues a workload's ops against a serving stack over one
// connection.
type httpLoad struct {
	base string
	k    int
	hc   *http.Client
}

func newHTTPLoad(base string, k int) *httpLoad {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpLoad{base: base, k: k, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (h *httpLoad) close() { h.hc.CloseIdleConnections() }

// topkResponse is the /topk body; trace is present on ?trace=1 requests.
type topkResponse struct {
	Results []scored   `json:"results"`
	Trace   []spanJSON `json:"trace"`
}

// read runs GET /topk for o and stamps r.done once the body is read. The
// body is decoded only when the caller keeps the answer or the request is
// traced. extra is appended to the query string; id >= 0 tags the request
// with opHeader.
func (h *httpLoad) read(o op, r *record, id int, extra string, keep bool) {
	url := h.base + "/topk?u=" + strconv.Itoa(int(o.U)) + "&k=" + strconv.Itoa(h.k) + extra
	body, ok := h.do(http.MethodGet, url, nil, id)
	r.done = now()
	r.ok = ok
	if !ok || (!keep && id < 0) {
		return
	}
	var resp topkResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		r.ok = false
		return
	}
	if keep {
		r.answer = resp.Results
	}
	if id >= 0 {
		r.spans = sumSpans(resp.Trace)
	}
}

type batchOp struct {
	Op string `json:"op"`
	U  int32  `json:"u"`
	V  int32  `json:"v"`
}

// write runs POST /edges/batch for o and stamps r.done.
func (h *httpLoad) write(o op, r *record, id int) {
	kind := "add"
	if o.Remove {
		kind = "remove"
	}
	ops := make([]batchOp, len(o.Edges))
	for i, e := range o.Edges {
		ops[i] = batchOp{Op: kind, U: e.U, V: e.V}
	}
	payload, err := json.Marshal(ops)
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	_, r.ok = h.do(http.MethodPost, h.base+"/edges/batch", payload, id)
	r.done = now()
}

// do sends one request and reads the whole body; ok is a 200.
func (h *httpLoad) do(method, url string, payload []byte, id int) ([]byte, bool) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, false
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(id))
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		logf("%s %s: %v", method, url, err)
		return nil, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		logf("%s %s: status %d, %v: %.200s", method, url, resp.StatusCode, err, body)
		return nil, false
	}
	return body, true
}

// stageMetrics are the /metrics samples the ledger reads beside /stats:
// the walk and probe stage seconds of sampled queries.
var stageMetrics = []string{
	"probesim_trace_walk_seconds_sum", "probesim_trace_walk_seconds_count",
	"probesim_trace_probe_seconds_sum", "probesim_trace_probe_seconds_count",
}

// counters reads the numeric fields of /stats and the stageMetrics
// samples of /metrics into one map.
func (h *httpLoad) counters() (map[string]float64, error) {
	body, ok := h.do(http.MethodGet, h.base+"/stats", nil, -1)
	if !ok {
		return nil, fmt.Errorf("GET /stats failed")
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	out := make(map[string]float64, len(raw)+len(stageMetrics))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	body, ok = h.do(http.MethodGet, h.base+"/metrics", nil, -1)
	if !ok {
		return nil, fmt.Errorf("GET /metrics failed")
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, found := strings.Cut(line, " ")
		if !found || !slices.Contains(stageMetrics, name) {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %s: %w", name, err)
		}
		out[name] = f
	}
	return out, nil
}
