package server

// Admission control and instrumentation: every route is wrapped by
// s.handle, which enforces the server's Limits before the handler runs
// and feeds the per-route latency histograms, in-flight gauges and
// outcome counters behind /metrics.
//
// The control model, per route class:
//
//   - Queries (classQuery): a slot from one deficit-weighted fair queue
//     (tenant.FairQueue) over MaxInflight slots, taken for the request's
//     tenant. With a tenant registry (SetTenants), each tenant waits in
//     its own small bounded queue and 503s only when THAT queue is full,
//     so a batch tenant's backlog can never reject an interactive
//     tenant. Without one, every query belongs to one default tenant
//     whose queue depth is 0: a request over the limit is rejected
//     immediately with 503 + Retry-After rather than queued — queueing
//     work the client will time out on anyway only grows the latency
//     tail. Admitted queries run under the configured query timeout
//     (capped further by the tenant's class budget), which the kernels
//     honor at their budget checkpoints (504 on expiry, with the partial
//     work discarded).
//   - Joins (classJoin): a small semaphore (default 1, the historical
//     bound on the O(n·query) fan-out) acquired while the request's
//     context is still live: a join that cannot start before its
//     deadline 504s in the queue without ever touching the kernel.
//   - Writes (classWrite): queue-depth rejection. Writers serialize on
//     the mutation mutex; once the line exceeds MaxWriteQueue the server
//     answers 503 + Retry-After instead of letting edge batches pile up
//     on the lock — backpressure the client can see and pace against.
//   - Meta (classMeta): /stats and /metrics are never limited; an
//     operator must be able to observe an overloaded server.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"probesim/internal/core"
	"probesim/internal/graph"
	"probesim/internal/promexpo"
	"probesim/internal/qtrace"
	"probesim/internal/router"
	"probesim/internal/tenant"
)

// Limits configures admission control. The zero value imposes no limits
// and no timeout (the library-friendly default); cmd/probesim-server
// installs production limits from its flags. Set limits before the
// server starts serving — SetLimits is not synchronized with requests.
type Limits struct {
	// MaxInflight bounds concurrently executing similarity queries
	// (/topk, /single-source, /pair, /progressive-topk). 0 = unlimited.
	MaxInflight int
	// SoftInflight is the degrade watermark: when more than this many
	// similarity queries are in flight (but not more than MaxInflight),
	// new queries are admitted DEGRADED — they run with a wider εa
	// (DegradeFactor× — a quadratically smaller walk budget), bypass the
	// result cache, and carry an X-ProbeSim-Degraded header telling the
	// client what accuracy it actually got. Load keeps being served with
	// honest labels instead of 503s; only past MaxInflight does the
	// server refuse. 0 disables degradation.
	SoftInflight int
	// DegradeFactor is the εa multiplier for degraded queries; values
	// <= 1 mean the default of 2 (a ~4× smaller walk budget).
	DegradeFactor float64
	// MaxJoinInflight bounds concurrently executing analysis scans
	// (/join/topk, /components). 0 = the historical default of 1.
	MaxJoinInflight int
	// MaxWriteQueue bounds writers waiting for the mutation mutex
	// (/edges, /edges/batch). 0 = unlimited.
	MaxWriteQueue int
	// QueryTimeout is the per-request deadline applied to query and join
	// routes. 0 = none. The kernels observe it at their checkpoints, so
	// expiry surfaces within microseconds of work as HTTP 504.
	QueryTimeout time.Duration
}

// SetLimits installs admission-control limits, building the query fair
// queue over MaxInflight slots. Call before serving.
func (s *Server) SetLimits(l Limits) {
	if l.MaxJoinInflight <= 0 {
		l.MaxJoinInflight = 1
	}
	s.limits = l
	s.fairq = tenant.NewFairQueue(l.MaxInflight)
	s.joinSem = make(chan struct{}, l.MaxJoinInflight)
}

type routeClass int

const (
	classQuery routeClass = iota
	classJoin
	classWrite
	classMeta
)

// statusWriter captures the response status so the middleware can
// classify the outcome after the handler returns. budgetExhausted
// disambiguates the two 503 families: writeQueryError sets it when the
// 503 came from an admitted query using up its work budget, so the
// Rejections counter stays a pure admission/backpressure signal.
type statusWriter struct {
	http.ResponseWriter
	status          int
	budgetExhausted bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// handle registers a route with admission control and instrumentation.
func (s *Server) handle(route string, cl routeClass, h http.HandlerFunc) {
	rm := s.reg.Route(route)
	s.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		rm.Requests.Add(1)
		rm.InFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		// Tenant identity resolves before anything can refuse the request
		// so rejections are attributed too. Without a registry every
		// request is the one default tenant; meta routes never resolve
		// one (probes and scrapes are nobody's traffic).
		ten := s.solo
		if s.tenants != nil && cl != classMeta {
			ten = s.tenants.Resolve(r.Header.Get(tenant.Header))
		}
		// The trace decision happens before anything can refuse the
		// request, so a rejected or timed-out query still gets an id on
		// the response header and a slow-query record; the trace (when
		// sampled) rides the request context into the kernels.
		tr, tid := s.beginTrace(sw, r, cl)
		if tr != nil {
			r = r.WithContext(qtrace.NewContext(r.Context(), tr, 0))
		}
		degradedServed := false
		defer func() {
			rm.InFlight.Add(-1)
			dur := time.Since(start)
			rm.Latency.Observe(dur)
			switch {
			case sw.status == http.StatusGatewayTimeout:
				rm.Timeouts.Add(1)
			case sw.status == http.StatusServiceUnavailable && sw.budgetExhausted:
				rm.BudgetExhausted.Add(1)
			case sw.status == http.StatusServiceUnavailable:
				rm.Rejections.Add(1)
			case sw.status >= 400:
				rm.Errors.Add(1)
			}
			if cl == classQuery {
				if sw.status < 400 {
					s.observeServiceTime(dur)
				}
				if s.slo != nil {
					status := sw.status
					if status == 0 {
						status = http.StatusOK
					}
					s.slo.Observe(ten.Name, dur, status, degradedServed)
				}
			}
			s.finishTrace(tr, tid, route, ten.Name, sw.status, start, dur)
		}()

		// The timeout wraps the request BEFORE admission, so time spent
		// queued for a join or fair-queue slot counts against the
		// deadline: a request that cannot start in time 504s in the queue
		// (bounded even for clients that set no deadline of their own)
		// instead of waiting forever and starting stale. A tenant class
		// budget cap tightens the server-wide timeout, never loosens it.
		if cl == classQuery || cl == classJoin {
			timeout := s.limits.QueryTimeout
			if cap := ten.Config.BudgetCap; cap > 0 && (timeout == 0 || cap < timeout) {
				timeout = cap
			}
			if timeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), timeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		aref := tr.StartSpan("admission", 0)
		release, degraded, ok := s.admit(sw, r, cl, ten)
		if !ok {
			tr.EndSpanAnnot(aref, "outcome=rejected")
			return
		}
		tr.EndSpan(aref)
		defer release()
		// Tenant degrade policy: a class that did not accept the degrade
		// path is served at full accuracy even over the soft watermark —
		// the watermark still sheds their load via the hard limit/queue.
		if degraded && !ten.Config.AllowDegrade {
			degraded = false
		}
		// X-ProbeSim-Max-Epsa: the client's accuracy floor. Unsatisfiable
		// against the configured base εa is a client error; satisfiable
		// but violated by the degrade the server wants to apply is a
		// refusal — the client said degraded answers past this bound are
		// worthless, so 503 + Retry-After beats burning budget on one.
		if cl == classQuery {
			if raw := r.Header.Get(tenant.MaxEpsaHeader); raw != "" {
				maxEpsa, err := strconv.ParseFloat(raw, 64)
				if err != nil || maxEpsa <= 0 {
					writeError(sw, http.StatusBadRequest, fmt.Errorf("server: bad %s %q", tenant.MaxEpsaHeader, raw))
					return
				}
				if base := s.servedEpsA(); maxEpsa < base {
					writeError(sw, http.StatusBadRequest, fmt.Errorf(
						"server: %s %g is below the configured epsa %g", tenant.MaxEpsaHeader, maxEpsa, base))
					return
				}
				if degraded && s.degradedOptions().EpsA > maxEpsa {
					ten.DegradeRefused.Add(1)
					s.writeRejection(sw, fmt.Errorf(
						"server: degraded to epsa %g under load, over the requested bound %g",
						s.degradedOptions().EpsA, maxEpsa))
					return
				}
			}
		}
		if degraded {
			rm.Degraded.Add(1)
			ten.Degraded.Add(1)
			degradedServed = true
			r = r.WithContext(context.WithValue(r.Context(), degradedKey{}, true))
		}
		h(sw, r)
	})
}

// degradedKey marks a request admitted over the soft watermark.
type degradedKey struct{}

func isDegraded(ctx context.Context) bool {
	v, _ := ctx.Value(degradedKey{}).(bool)
	return v
}

// degradedHeader tells the client its answer was computed at reduced
// accuracy, and which εa it actually got.
const degradedHeader = "X-ProbeSim-Degraded"

// degradedOptions derives the wider-εa options a degraded query runs
// with: εa scaled by DegradeFactor (walk budget shrinks quadratically),
// an explicit NumWalks override scaled to match.
func (s *Server) degradedOptions() core.Options {
	f := s.limits.DegradeFactor
	if f <= 1 {
		f = 2
	}
	opt := s.opt
	epsA := opt.EpsA
	if epsA == 0 {
		epsA = core.DefaultEpsA
	}
	epsA *= f
	if epsA > 0.9 {
		epsA = 0.9
	}
	opt.EpsA = epsA
	if opt.NumWalks > 0 {
		opt.NumWalks = int(float64(opt.NumWalks) / (f * f))
		if opt.NumWalks < 1 {
			opt.NumWalks = 1
		}
	}
	return opt
}

// tierHeader tells the client which serving tier answered: "hot" (an
// answer the hot tier pins in the result cache — same bytes the live
// kernel would produce, at microsecond latency) or "live" (not served by
// the hot tier: an unpinned cached answer or the kernel answered). Sent
// only when the hot tier is enabled, so pre-tier deployments are
// untouched.
const tierHeader = "X-ProbeSim-Tier"

// singleSourceScores answers the request's single-source query under its
// admission verdict, as a sparse core.Ranked answer: every path below
// (hot entry, cache hit, live miss, degraded run) hands the handlers the
// same form, so they read a prefix or look up one node and no path
// builds an n-vector. With the hot tier armed, its pinned answers are
// consulted FIRST — even for degraded admissions, since a hot hit costs
// microseconds and serves FULL accuracy, strictly better than degrading
// — unless the request opts out with ?tier=live, which runs the live
// kernel on the published snapshot, past the pinned and unpinned cached
// answers alike. Other sources fall through to the pre-tier paths
// completely unchanged: the normal path goes through the cache; a
// degraded request runs the kernel directly on the published snapshot
// with the wider εa, neither reading nor filling the cache (degraded
// answers must never pollute the full-accuracy cache), and stamps the
// response with the accuracy it got.
func (s *Server) singleSourceScores(w http.ResponseWriter, r *http.Request, u graph.NodeID) (*core.Ranked, error) {
	live := false
	if s.hot != nil {
		if live = r.URL.Query().Get("tier") == "live"; live {
			// Escape hatch: bypass the index but keep feeding the
			// popularity sketch, so escaped traffic still shapes the hot set.
			s.hot.Touch(u)
		} else if ranked, ok := s.hot.SingleSource(s.ex.Snapshot(), u); ok {
			w.Header().Set(tierHeader, "hot")
			s.epsaHist.Observe(s.servedEpsA())
			return ranked, nil
		}
		w.Header().Set(tierHeader, "live")
	}
	if isDegraded(r.Context()) {
		opt := s.degradedOptions()
		w.Header().Set(degradedHeader, fmt.Sprintf("epsa=%g", opt.EpsA))
		s.epsaHist.Observe(opt.EpsA)
		return core.SingleSourceRanked(r.Context(), s.ex.Snapshot(), u, opt)
	}
	s.epsaHist.Observe(s.servedEpsA())
	if live {
		return core.SingleSourceRanked(r.Context(), s.ex.Snapshot(), u, s.opt)
	}
	return s.q.Ranked(r.Context(), u)
}

// servedEpsA is the εa a normally admitted query runs at (the configured
// bound, or core's default when unset) — the baseline band of the
// served-εa histogram.
func (s *Server) servedEpsA() float64 {
	if s.opt.EpsA > 0 {
		return s.opt.EpsA
	}
	return core.DefaultEpsA
}

// admit applies the route class's admission policy. It either returns a
// release function, the degraded verdict and true, or writes the
// rejection response and returns false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, cl routeClass, ten *tenant.Tenant) (func(), bool, bool) {
	nop := func() {}
	switch cl {
	case classQuery:
		// A deadline expiring while queued surfaces as the usual 504 (the
		// timeout was applied before admission, so queueing time counts
		// against it).
		rel, err := s.fairq.Acquire(r.Context(), ten)
		switch {
		case errors.Is(err, tenant.ErrQueueFull):
			ten.Rejected.Add(1)
			s.writeRejection(w, fmt.Errorf("server: all %d similarity query slots in flight and tenant %s wait queue full (%d deep)",
				s.limits.MaxInflight, ten.Name, ten.Config.QueueDepth))
			return nil, false, false
		case err != nil:
			s.writeQueryError(w, fmt.Errorf("server: queued for admission: %w", err))
			return nil, false, false
		}
		ten.Inflight.Add(1)
		ten.Admitted.Add(1)
		release := func() {
			ten.Inflight.Add(-1)
			rel()
		}
		// Between the soft watermark and the hard limit, serve degraded
		// instead of refusing: a wider εa keeps latency bounded under
		// pressure, and the response header keeps the client honest about
		// what it got.
		soft := s.limits.SoftInflight
		return release, soft > 0 && s.fairq.Inflight() > soft, true
	case classJoin:
		// Joins queue (bounded by the request's deadline — the middleware
		// applies QueryTimeout before admission) instead of rejecting:
		// the limit exists to serialize O(n·query) scans, and their
		// clients tolerate latency far better than refusals. The channel
		// is captured so a SetLimits replacing s.joinSem mid-flight can
		// never strand the release on the new channel.
		sem := s.joinSem
		select {
		case sem <- struct{}{}:
			return func() { <-sem }, false, true
		case <-r.Context().Done():
			s.writeQueryError(w, fmt.Errorf("server: waiting for analysis slot: %w", r.Context().Err()))
			return nil, false, false
		}
	case classWrite:
		// Add-then-check (like classQuery): a check-then-add pair would
		// let a burst of simultaneous writers all pass the depth test.
		max := s.limits.MaxWriteQueue
		if max <= 0 {
			return nop, false, true
		}
		if n := s.writeWaiters.Add(1); n > int64(max) {
			s.writeWaiters.Add(-1)
			s.writeRejection(w, fmt.Errorf("server: %d writers queued on the mutation lock (limit %d)", n-1, max))
			return nil, false, false
		}
		return func() { s.writeWaiters.Add(-1) }, false, true
	default:
		return nop, false, true
	}
}

// retryAfter bounds the load-derived Retry-After hint: at least 1s (the
// old hard-coded hint — short enough that a polite client retries while
// its user is still waiting), at most 30s (past that the client should
// give up, not camp).
const (
	retryAfterMin = 1
	retryAfterMax = 30
)

// retryAfterHint derives the Retry-After seconds from actual pressure:
// the work queued ahead of a retry (fair-queue depth plus the retry
// itself) times the observed per-query service time, spread across the
// serving slots. Before any query has completed (no EWMA yet) it falls
// back to the 1s floor.
func (s *Server) retryAfterHint() string {
	ewma := time.Duration(s.svcTimeEWMA.Load())
	if ewma <= 0 {
		return strconv.Itoa(retryAfterMin)
	}
	depth := 1 + s.fairq.QueuedLen()
	slots := s.limits.MaxInflight
	if slots < 1 {
		slots = 1
	}
	secs := int(math.Ceil(float64(depth) * ewma.Seconds() / float64(slots)))
	if secs < retryAfterMin {
		secs = retryAfterMin
	}
	if secs > retryAfterMax {
		secs = retryAfterMax
	}
	return strconv.Itoa(secs)
}

// observeServiceTime feeds the EWMA behind retryAfterHint with one
// successful query's duration (α = 1/8). The load/store pair is not a
// CAS on purpose: concurrent updates may drop an observation, which a
// pacing hint tolerates and the hot path should not pay a retry loop
// for.
func (s *Server) observeServiceTime(dur time.Duration) {
	old := s.svcTimeEWMA.Load()
	if old == 0 {
		s.svcTimeEWMA.Store(int64(dur))
		return
	}
	s.svcTimeEWMA.Store(old + (int64(dur)-old)/8)
}

// writeRejection answers an admission-control or backpressure refusal:
// 503 with Retry-After, the contract clients pace themselves against.
func (s *Server) writeRejection(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", s.retryAfterHint())
	writeError(w, http.StatusServiceUnavailable, err)
}

// statusClientClosedRequest is nginx's conventional 499 for "client
// went away": the response itself is moot, but the distinct status keeps
// ordinary client disconnects out of the 503 Rejections counter that
// operators alert on for real admission pressure.
const statusClientClosedRequest = 499

// writeQueryError maps a query error onto the serving contract:
//
//	deadline (ctx or Budget.Timeout)    -> 504 Gateway Timeout + Retry-After
//	shard worker unreachable/died       -> 502 Bad Gateway + Retry-After
//	work budget exhausted (ErrBudget)   -> 503 Service Unavailable + Retry-After
//	client went away (context.Canceled) -> 499 (counted under Errors, not Rejections)
//	anything else                       -> 500
//
// Partial results accompanying these errors are discarded: a vector
// without its εa guarantee is not an answer the API can stand behind.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, router.ErrTransport):
		// A worker died mid-query: the canonical bad-gateway condition.
		// Retry-After matches the transport's reconnect backoff.
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeError(w, http.StatusBadGateway, err)
	case errors.Is(err, core.ErrBudget):
		if sw, ok := w.(*statusWriter); ok {
			sw.budgetExhausted = true
		}
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleMetrics serves the Prometheus text page: per-route histograms,
// gauges and counters from the registry, then the graph/cache/shard
// gauges that already back /stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.ex.Snapshot()
	cs := s.q.CacheStats()
	s.reg.WritePrometheus(w, func(out io.Writer) {
		promexpo.WriteValueHistogram(out, "probesim_degraded_epsa",
			"Absolute error bound (epsa) each served similarity query ran at; mass above the configured epsa is degraded service.", s.epsaHist)
		promexpo.WriteGauge(out, "probesim_graph_nodes", "Nodes in the published snapshot.", int64(snap.NumNodes()))
		promexpo.WriteGauge(out, "probesim_graph_edges", "Directed edges in the published snapshot.", snap.NumEdges())
		promexpo.WriteGauge(out, "probesim_graph_version", "Version of the published snapshot.", int64(snap.Version()))
		promexpo.WriteCounter(out, "probesim_cache_hits_total", "Querier cache hits.", cs.Hits)
		promexpo.WriteCounter(out, "probesim_cache_misses_total", "Querier cache misses.", cs.Misses)
		promexpo.WriteGauge(out, "probesim_cache_vectors", "Cached single-source answers the hot tier does not pin.", int64(cs.Cached))
		promexpo.WriteCounter(out, "probesim_cache_shared_flights_total", "Queries that joined another's in-flight computation.", cs.Shared)
		promexpo.WriteCounter(out, "probesim_cache_evictions_total", "Unpinned cached answers dropped by LRU capacity pressure.", cs.Evictions)
		promexpo.WriteLabeled(out, "probesim_cache_invalidations_total", "Unpinned cached answers dropped because the graph moved, by cause: a write had an endpoint in the answer's read set, a write met an answer without a bounded read set, or a move the applied stream did not explain emptied the cache.", "counter", []promexpo.Sample{
			{Label: `cause="touched"`, Value: cs.Invalidations.Touched},
			{Label: `cause="unbounded"`, Value: cs.Invalidations.Unbounded},
			{Label: `cause="flush"`, Value: cs.Invalidations.Flush},
		})
		if s.hot != nil {
			hs := s.hot.Stats()
			promexpo.WriteGauge(out, "probesim_hot_entries", "Hot-source answers pinned in the result cache.", int64(hs.Entries))
			promexpo.WriteGauge(out, "probesim_hot_stale_entries", "Hot sources whose pinned answer a write dropped, awaiting rebuild.", int64(hs.StaleEntries))
			promexpo.WriteGauge(out, "probesim_hot_tracked_sources", "Sources tracked by the popularity sketch.", int64(hs.TrackedSources))
			promexpo.WriteCounter(out, "probesim_hot_hits_total", "Queries answered from a pinned hot-source answer.", hs.Hits)
			promexpo.WriteCounter(out, "probesim_hot_misses_total", "Queries that fell through to the result cache or the live kernel.", hs.Misses)
			promexpo.WriteCounter(out, "probesim_hot_invalidations_total", "Pinned hot-source answers dropped by applied write batches.", hs.Invalidations)
			promexpo.WriteCounter(out, "probesim_hot_builds_total", "Background hot-entry build attempts.", hs.Builds)
			promexpo.WriteLabeled(out, "probesim_hot_build_errors_total", "Hot-entry builds discarded, by cause: cut short by a budget stop or cancellation, or finished but lost the install race to a write.", "counter", []promexpo.Sample{
				{Label: `cause="stopped"`, Value: hs.BuildsStopped},
				{Label: `cause="raced"`, Value: hs.BuildsRaced},
			})
			promexpo.WriteLabeledFloat(out, "probesim_hot_discarded_build_seconds_total", "Wall seconds of hot-entry builds discarded, by cause (as probesim_hot_build_errors_total).", "counter", []promexpo.FloatSample{
				{Label: `cause="stopped"`, Value: hs.StoppedBuildSeconds},
				{Label: `cause="raced"`, Value: hs.RacedBuildSeconds},
			})
			promexpo.WriteCounter(out, "probesim_hot_evictions_total", "Pinned answers demoted to the LRU for falling out of the hot set.", hs.Evictions)
			promexpo.WriteCounter(out, "probesim_hot_yields_total", "Refresher rounds cut short for foreground load.", hs.Yields)
			promexpo.WriteGauge(out, "probesim_hot_watermark", "Id of the last batch the store decided.", int64(s.st.LastBatch()))
			promexpo.WriteGauge(out, "probesim_hot_lag_batches", "Staleness bound: batches the oldest hot source a write left without an answer is behind the last applied batch.", int64(hs.LagBatches))
		}
		if tcr := s.tracer; tcr != nil {
			promexpo.WriteCounter(out, "probesim_slow_queries_total", "Completed queries over the slow-query threshold.", tcr.SlowCount())
			promexpo.WriteCounter(out, "probesim_traces_sampled_total", "Requests that recorded a span tree.", tcr.Sampled())
			// Stage histograms observe sampled queries only: per-stage
			// timing costs clock reads the unsampled hot path must not pay.
			promexpo.WriteValueHistogram(out, "probesim_trace_walk_seconds",
				"Walk-stage seconds per sampled query (aggregated across the query's workers).", s.stageHist[qtrace.StageWalk])
			promexpo.WriteValueHistogram(out, "probesim_trace_probe_seconds",
				"Probe-stage seconds per sampled query (aggregated across the query's workers).", s.stageHist[qtrace.StageProbe])
		}
		if s.st != nil {
			ss := s.st.Stats()
			promexpo.WriteGauge(out, "probesim_shards", "Shard CSRs in the published snapshot.", int64(ss.Shards))
			promexpo.WriteCounter(out, "probesim_shard_publications_total", "Snapshot publications.", ss.Publications)
			promexpo.WriteCounter(out, "probesim_shard_noop_publishes_total", "Publications with no pending mutations.", ss.NoopPublishes)
			promexpo.WriteCounter(out, "probesim_shard_aborted_publishes_total", "Publications abandoned by cancellation.", ss.AbortedPublishes)
			promexpo.WriteCounter(out, "probesim_shards_rebuilt_total", "Shard CSRs re-encoded across publications.", ss.ShardsRebuilt)
			promexpo.WriteCounter(out, "probesim_shards_reused_total", "Shard CSRs shared with the previous snapshot.", ss.ShardsReused)
			promexpo.WriteCounter(out, "probesim_shard_edges_reencoded_total", "Adjacency entries re-encoded across publications.", ss.EdgesReEncoded)
			gc := s.st.GC()
			promexpo.WriteCounter(out, "probesim_snapshot_retired_total", "Snapshot generations superseded by publication.", gc.RetiredTotal)
			promexpo.WriteGauge(out, "probesim_snapshot_retired_generations", "Superseded snapshot generations still live (pinned or uncollected).", int64(gc.RetiredLive))
			promexpo.WriteGauge(out, "probesim_snapshot_retired_bytes", "Approximate bytes uniquely pinned by live retired generations.", gc.RetiredBytes)
			promexpo.WriteGauge(out, "probesim_snapshot_bytes", "Resident size of the current snapshot.", gc.CurrentBytes)
		}
		if s.wal != nil {
			ws := s.wal.Stats()
			promexpo.WriteCounter(out, "probesim_wal_appends_total", "Edge batches appended to the write-ahead log.", ws.Appends)
			promexpo.WriteCounter(out, "probesim_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", ws.AppendedBytes)
			promexpo.WriteCounter(out, "probesim_wal_syncs_total", "Explicit fsyncs issued by the write-ahead log.", ws.Syncs)
			promexpo.WriteCounter(out, "probesim_wal_rotations_total", "Log segments rotated.", ws.Rotations)
			promexpo.WriteCounter(out, "probesim_wal_checkpoints_total", "Checkpoints written this process lifetime.", ws.Checkpoints)
			promexpo.WriteGauge(out, "probesim_wal_segments", "Log segment files currently on disk.", ws.SegmentsLive)
			promexpo.WriteGauge(out, "probesim_wal_segment_bytes", "Bytes across live log segments.", ws.SegmentBytes)
			promexpo.WriteGauge(out, "probesim_wal_last_batch", "Id of the last batch appended to the log.", int64(ws.LastBatch))
			promexpo.WriteGauge(out, "probesim_wal_checkpoint_batch", "Batch id the newest checkpoint covers through.", int64(ws.LastCheckpoint))
		}
		if s.rt.Distributed() {
			workers := s.rt.WorkerStats()
			// worker stays the FIRST label (dashboards and the smoke tests
			// match on it); replica is the worker's position in -workers.
			label := func(ws router.WorkerStat) string {
				return fmt.Sprintf("worker=%q,replica=\"%d\"", ws.Addr, ws.Replica)
			}
			sample := func(v func(router.WorkerStat) int64) []promexpo.Sample {
				out := make([]promexpo.Sample, len(workers))
				for i, ws := range workers {
					out[i] = promexpo.Sample{Label: label(ws), Value: v(ws)}
				}
				return out
			}
			promexpo.WriteLabeled(out, "probesim_router_worker_up", "1 when the worker's last call or health probe succeeded.", "gauge",
				sample(func(ws router.WorkerStat) int64 {
					if ws.Healthy {
						return 1
					}
					return 0
				}))
			promexpo.WriteLabeled(out, "probesim_router_worker_current", "1 when the replica has taken every identified batch in order and serves direct writes.", "gauge",
				sample(func(ws router.WorkerStat) int64 {
					if ws.Current {
						return 1
					}
					return 0
				}))
			promexpo.WriteLabeled(out, "probesim_router_worker_version", "Snapshot version the worker last reported.", "gauge",
				sample(func(ws router.WorkerStat) int64 { return int64(ws.Version) }))
			promexpo.WriteLabeled(out, "probesim_router_worker_calls_total", "Engine calls issued to the worker.", "counter",
				sample(func(ws router.WorkerStat) int64 { return ws.Calls }))
			promexpo.WriteLabeled(out, "probesim_router_worker_errors_total", "Transport failures talking to the worker.", "counter",
				sample(func(ws router.WorkerStat) int64 { return ws.Errors }))
			promexpo.WriteLabeled(out, "probesim_router_worker_reconnects_total", "Connections dialed to the worker.", "counter",
				sample(func(ws router.WorkerStat) int64 { return ws.Reconnects }))
			rc := s.rt.Counters()
			promexpo.WriteCounter(out, "probesim_router_shard_fetches_total", "Shard adjacency blocks fetched from workers.", rc.ShardFetches)
			promexpo.WriteCounter(out, "probesim_router_shard_blocks_carried_total", "Shard blocks a new view generation inherited instead of fetching.", rc.ShardBlocksCarried)
			fe := rc.ShardFetchErrors
			promexpo.WriteLabeled(out, "probesim_router_shard_fetch_errors_total", "Shard block fetches that failed, by cause.", "counter", []promexpo.Sample{
				{Label: `cause="transport"`, Value: fe.Transport},
				{Label: `cause="retired"`, Value: fe.Retired},
				{Label: `cause="deadline"`, Value: fe.Deadline},
				{Label: `cause="other"`, Value: fe.Other},
			})
			promexpo.WriteCounter(out, "probesim_router_shard_batches_total", "Batched ResolveShards round trips (fetches per batch = fetches/batches).", rc.ShardBatches)
			promexpo.WriteCounter(out, "probesim_router_apply_retries_total", "Identified batches re-sent to a worker after a transport failure.", rc.ApplyRetries)
			promexpo.WriteCounter(out, "probesim_router_failovers_total", "Reads retried on another replica after a retryable failure.", rc.Failovers)
			promexpo.WriteCounter(out, "probesim_router_hedges_sent_total", "Speculative duplicate reads launched after the hedge delay.", rc.HedgesSent)
			promexpo.WriteCounter(out, "probesim_router_hedges_won_total", "Hedged reads that answered before the primary.", rc.HedgesWon)
			promexpo.WriteCounter(out, "probesim_router_apply_skipped_total", "Write broadcasts that skipped a demoted replica (the ring replays it later).", rc.ApplySkips)
			promexpo.WriteCounter(out, "probesim_router_catchup_batches_total", "Ring batches replayed to lagging replicas during catch-up.", rc.CatchupBatches)
		}
		s.writeTenantMetrics(out)
		promexpo.WriteBuildInfo(out, "probesim-server")
	})
}
