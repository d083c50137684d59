// Package server implements the HTTP similarity-search service behind
// cmd/probesim-server: top-k and single-source SimRank queries over a
// live, updatable graph, with one store of single-source answers, the
// core.Querier result cache, in front. The hot-source tier, when armed,
// pins its answers in that same store.
//
// Concurrency contract: every read endpoint — similarity queries AND the
// analysis endpoints (/join/topk, /components) — is lock-free: each runs
// against the immutable snapshot the core.Executor has published, so an
// edge update never stalls a read and a long read never stalls an update.
// Edge updates serialize among themselves on the write mutex, apply
// through the router, and publish a fresh snapshot before releasing it;
// in-flight reads keep the (consistent) snapshot they grabbed. Cache
// invalidation is automatic. Over an in-process store the result cache
// follows the store's applied-batch stream (its one hook there) and a
// write drops only the cached answers, pinned or not, whose read sets
// hold one of its endpoints; over a worker fleet, which has no such
// stream at the routing tier, the cache is keyed by snapshot version and
// every write empties it.
//
// The server has one backend, a router.Router, and one write path: every
// edge update is one batch through Router.Apply. Over an in-process
// shard.Store (New, NewSharded: the router's single-engine fast path)
// publication re-encodes only the shards an update touched and /stats
// reports the rebuild counters; over a worker fleet (NewRouted) the
// router fans reads out and broadcasts writes.
//
// Serving contract (see admission.go): every route is instrumented
// (per-route latency histograms, in-flight gauges and outcome counters
// behind /metrics) and admission-controlled per Limits — in-flight
// queries bounded by one fair queue that answers 503+Retry-After when
// the request's tenant may wait no longer (at once for the untenanted
// server's default tenant), queue-depth write backpressure, and a
// per-request query timeout the kernels honor at their budget
// checkpoints (504 on expiry). Partial results are never served.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/core"
	"probesim/internal/graph"
	"probesim/internal/health"
	"probesim/internal/hotidx"
	"probesim/internal/promexpo"
	"probesim/internal/qtrace"
	"probesim/internal/router"
	"probesim/internal/shard"
	"probesim/internal/slo"
	"probesim/internal/tenant"
	"probesim/internal/wal"
)

// Server is the http.Handler for the similarity service.
type Server struct {
	mu    sync.Mutex     // serializes writes: rt.Apply plus the republish after it
	rt    *router.Router // the backend: reads and writes both go through it
	st    *shard.Store   // the router's fast-path store; nil over a worker fleet
	ex    *core.Executor
	q     *core.Querier
	opt   core.Options
	limit int
	mux   *http.ServeMux

	// Admission control (see admission.go): the active limits, the
	// fair queue every similarity query takes a slot from (MaxInflight
	// slots, built by SetLimits; unbounded until then), the analysis-scan
	// semaphore (capacity MaxJoinInflight; joins used to queue on the
	// write mutex, this keeps their O(n·query) fan-out bounded without
	// ever blocking queries or writes), and the write-queue depth gauge
	// behind the backpressure rejection.
	limits       Limits
	fairq        *tenant.FairQueue
	joinSem      chan struct{}
	writeWaiters atomic.Int64

	// Multi-tenant QoS plane (see tenantslo.go): the tenant registry
	// (SetTenants) resolves X-ProbeSim-Tenant to class policy. Without
	// one, solo — the default tenant: weight 1, queue depth 0,
	// degradable, no budget cap — stands in for every request, so a
	// query over MaxInflight is refused at once instead of queued. slo
	// (SetSLO) tracks per-tenant rolling-window objectives behind
	// /debug/slo and the probesim_slo_* metric families. svcTimeEWMA is
	// the observed per-query service time (ns) behind the load-derived
	// Retry-After hint.
	tenants     *tenant.Registry
	solo        *tenant.Tenant
	slo         *slo.Tracker
	svcTimeEWMA atomic.Int64

	// reg feeds /metrics: per-route latency histograms, in-flight
	// gauges, timeout/rejection counters.
	reg *promexpo.Registry

	// epsaHist observes the εa every served similarity query actually
	// ran at: the base εa for normal admissions, the widened one for
	// degraded admissions — the accuracy distribution operators watch
	// under pressure (probesim_degraded_epsa on /metrics).
	epsaHist *promexpo.ValueHistogram

	// tracer, when armed (SetTracer), owns query tracing: sampling,
	// span recording, the slow-query log and /debug/queries. stageHist
	// holds the per-stage (walk/probe) duration histograms sampled
	// queries feed behind /metrics.
	tracer    *qtrace.Tracer
	stageHist [qtrace.NumStages]*promexpo.ValueHistogram

	// hstate backs /healthz and /readyz: liveness is unconditional, and
	// readiness starts true (newServer returns a fully usable server) but
	// flips off the moment the owning process begins a graceful drain —
	// BEFORE listeners close, so load balancers stop routing first.
	hstate health.State

	// wal, when set (SetWAL), is the log the router's fast-path engine
	// appends every edge batch to (and fsyncs, per policy) BEFORE it is
	// applied and acknowledged, so an HTTP 200 means the batch survives
	// a crash. The server keeps it for /stats. Over a worker fleet the
	// workers own their logs instead and this stays nil.
	wal *wal.Log

	// hot, when set (EnableHotTier), answers hot-source queries from the
	// answers it pins in q at microsecond latency; cold sources fall
	// through to the live path completely unchanged. Responses carry
	// X-ProbeSim-Tier saying which path served them, and ?tier=live
	// forces the live kernel for any single request.
	hot *hotidx.Tier
}

// DefaultShards is the shard count New partitions its graph into, and
// the default of probesim-server's -shards.
const DefaultShards = 16

// New builds a Server over a DefaultShards-shard store built from g (see
// NewSharded). cacheCap bounds the Querier cache; limit bounds the
// number of entries /single-source returns. The store copies g's
// adjacency, so g itself is never written; all further mutations must go
// through the HTTP API.
func New(g *graph.Graph, opt core.Options, cacheCap, limit int) *Server {
	return NewSharded(shard.NewStore(g, DefaultShards, 0), opt, cacheCap, limit)
}

// NewSharded builds a Server over a sharded snapshot store: queries and
// analysis reads serve from the composite per-shard snapshot, and each
// update batch republishes only the shards it touched. It is
// NewRouted(router.NewLocal(st), ...). The server takes ownership of st.
func NewSharded(st *shard.Store, opt core.Options, cacheCap, limit int) *Server {
	return NewRouted(router.NewLocal(st), opt, cacheCap, limit)
}

// NewRouted builds a Server over a shard router, the server's only
// backend: queries run on the router's published view and every edge
// update is one rt.Apply batch. Over router.NewLocal the router's fast
// path serves the store's own snapshots and applies each batch straight
// to its one engine. Over a fleet, queries fan out to the engines
// (in-process or probesim-shardd workers over RPC), writes broadcast
// through the router's write plane, and /stats + /metrics grow
// per-worker health/version rows and router counters.
func NewRouted(rt *router.Router, opt core.Options, cacheCap, limit int) *Server {
	if limit <= 0 {
		limit = 100
	}
	ex := core.NewExecutorOn(rt, opt)
	s := &Server{
		rt:      rt,
		ex:      ex,
		q:       core.NewQuerierOn(ex, cacheCap),
		opt:     opt,
		limit:   limit,
		mux:     http.NewServeMux(),
		fairq:   tenant.NewFairQueue(0),
		joinSem: make(chan struct{}, 1),
		solo:    &tenant.Tenant{Name: tenant.DefaultName, Class: tenant.DegradeTolerant, Config: tenant.Config{Weight: 1, AllowDegrade: true}},
		reg:     promexpo.NewRegistry(),
		// Bounds double from one half of the tightest production εa up
		// through the widest degradation the admission layer can apply
		// (DegradeFactor caps εa at 0.9).
		epsaHist: promexpo.NewValueHistogram([]float64{0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8}),
	}
	if le := rt.Local(); le != nil {
		s.st = le.Store()
		s.st.SubscribeApplied(s.q.Follow(s.st.Version))
	}
	for st := range s.stageHist {
		// Seconds of stage time per query, 100µs up to 5s.
		s.stageHist[st] = promexpo.NewValueHistogram([]float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
	}
	s.handle("/topk", classQuery, s.handleTopK)
	s.handle("/single-source", classQuery, s.handleSingleSource)
	s.handle("/edges", classWrite, s.handleEdges)
	s.handle("/stats", classMeta, s.handleStats)
	s.handle("/metrics", classMeta, s.handleMetrics)
	s.handle("/debug/queries", classMeta, s.handleDebugQueries)
	s.handle("/debug/slo", classMeta, s.handleDebugSLO)
	// Probes bypass admission control and instrumentation entirely: an
	// orchestrator must get an answer even when the server is saturated.
	s.hstate.SetReady(true)
	s.hstate.Register(s.mux)
	s.registerExtra()
	return s
}

// SetWAL arms the durable write path: the router's fast-path engine
// appends every subsequent edge batch to lg before applying it, and the
// server acknowledges only once the log has it (under the log's fsync
// policy). Requires an in-process store (New, NewSharded, or NewRouted
// over router.NewLocal); over a fleet the workers own their logs. Call
// before serving.
func (s *Server) SetWAL(lg *wal.Log) {
	le := s.rt.Local()
	if le == nil {
		panic("server: SetWAL requires an in-process store")
	}
	le.SetWAL(lg)
	s.wal = lg
}

// EnableHotTier arms the hot-source index tier: a space-saving sketch on
// the query path discovers hot sources, and a background refresher pins
// up to maxEntries of them in the server's result cache (core.Querier),
// exempt from its LRU bound, pre-building their single-source answers
// through it with the SAME options the live path serves (so a hot answer
// is byte-identical to the live kernel's). The cache's one
// applied-batch hook drops exactly the answers, pinned or not, that each
// write batch can affect; the tier subscribes to nothing. Requires an
// in-process store — only there does the cache follow the store's
// stream. Call before serving; the returned tier is the caller's to
// Close on shutdown. maxEntries <= 0 and refreshBudget <= 0 take the
// tier's defaults.
func (s *Server) EnableHotTier(maxEntries int, refreshBudget time.Duration) *hotidx.Tier {
	if s.st == nil {
		panic("server: EnableHotTier requires an in-process store")
	}
	if s.hot != nil {
		panic("server: hot tier already enabled")
	}
	var rb core.Budget
	if refreshBudget > 0 {
		rb.Timeout = refreshBudget
	}
	s.hot = hotidx.New(s.q, hotidx.Config{
		MaxEntries:    maxEntries,
		RefreshBudget: rb,
		Yield:         s.hotYield,
	})
	return s.hot
}

// hotYield tells the background refresher when foreground admission
// wants the CPU: past half the hard in-flight limit (or the soft
// degrade watermark, when only that is configured), builds step aside.
// Refresh work never occupies admission slots either way — it runs on
// the tier's own goroutine below the HTTP layer — so this is about CPU,
// not slots: live queries keep their full MaxInflight headroom under a
// refresh storm.
func (s *Server) hotYield() bool {
	n := s.fairq.Inflight()
	if max := s.limits.MaxInflight; max > 0 {
		half := max / 2
		if half < 1 {
			half = 1
		}
		return n >= half
	}
	if soft := s.limits.SoftInflight; soft > 0 {
		return n >= soft
	}
	return false
}

// Health exposes the server's liveness/readiness state so the owning
// process can flip readiness off (SetDraining) before it stops
// listening, and orchestrators can probe /healthz and /readyz.
func (s *Server) Health() *health.State { return &s.hstate }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) nodeParam(r *http.Request, name string) (graph.NodeID, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	// Validate against the published snapshot, not the mutable graph: the
	// node count only changes via snapshot publication, and reading the
	// snapshot is race-free.
	if n := s.ex.Snapshot().NumNodes(); v < 0 || int(v) >= n {
		return 0, fmt.Errorf("node %d out of range [0, %d)", v, n)
	}
	return graph.NodeID(v), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

type scoredNodeJSON struct {
	Node  graph.NodeID `json:"node"`
	Score float64      `json:"score"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 || k > 10000 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("parameter k must be in [1, 10000]"))
			return
		}
	}
	ranked, err := s.singleSourceScores(w, r, u)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	res := ranked.TopK(k)
	out := make([]scoredNodeJSON, len(res))
	for i, r := range res {
		out[i] = scoredNodeJSON{Node: r.Node, Score: r.Score}
	}
	body := map[string]any{"query": u, "results": out}
	addTrace(r, body)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleSingleSource(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ranked, err := s.singleSourceScores(w, r, u)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	top := ranked.Top
	if len(top) > s.limit {
		top = top[:s.limit]
	}
	m := make(map[string]float64, len(top))
	for _, e := range top {
		m[strconv.Itoa(int(e.Node))] = e.Score
	}
	body := map[string]any{
		"query": u, "nonzero": len(ranked.Top), "scores": m,
	}
	addTrace(r, body)
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	u, err := s.nodeParam(r, "u")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := s.nodeParam(r, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	op := graph.EdgeOp{U: u, V: v}
	switch r.Method {
	case http.MethodPost:
	case http.MethodDelete:
		op.Remove = true
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST or DELETE"))
		return
	}
	snap, err := s.applyBatch([]graph.EdgeOp{op})
	if err != nil {
		s.writeApplyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"edges": snap.NumEdges(), "version": snap.Version(),
	})
}

// applyBatch is the one write path, shared by /edges and /edges/batch:
// under the write mutex, one rt.Apply for the whole batch, then one
// publication, so queries switch from the pre-batch graph to the
// post-batch graph atomically and the next writer sees the batch. The
// deferred unlock keeps a panic inside the critical section (net/http
// recovers handler panics and keeps serving) from wedging the mutex.
//
// Neither step inherits the request context. Aborting half a fleet
// broadcast on a client disconnect would orphan an identified batch
// mid-retry for nothing; aborting the publish would leave an applied
// (and logged) batch invisible to every query until some later write
// republishes — a staleness window no other client could see or fix.
// Publication is bounded work (O(batch + touched shards)).
func (s *Server) applyBatch(ops []graph.EdgeOp) (graph.VersionedView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.rt.Apply(context.Background(), ops); err != nil {
		return nil, err
	}
	return s.ex.Refresh(), nil
}

// writeApplyError maps a failed write batch to its status.
//
//   - Over the in-process fast path, ErrUnavailable means the log append
//     was annulled and nothing was applied: the server's fault, 500, and
//     the client may retry.
//   - Over a fleet, ErrTransport or ErrUnavailable means no worker
//     acknowledged the batch through the retry budget. The batch may
//     still apply: a worker whose reply was lost HOLDS it durably (the
//     router does not roll back), and the router replays it from its
//     ring to every worker that returns. That 502 deliberately carries
//     no Retry-After: re-POSTing the same ops would get a fresh batch id
//     and double-apply (parallel edges are legal, so the damage is
//     silent). The client must verify state (or wait for the health pass
//     to re-admit a worker) before re-submitting.
//   - Over a fleet with no current worker, ErrNoCurrentWorker means the
//     router refused the batch before sending it anywhere or giving it
//     an id: nothing holds it and nothing will replay it, so it is a 503
//     with Retry-After, and a retry is safe.
//   - Anything else is a rejected batch, rolled back everywhere: 400.
func (s *Server) writeApplyError(w http.ResponseWriter, err error) {
	transient := errors.Is(err, router.ErrTransport) || errors.Is(err, router.ErrUnavailable)
	switch {
	case errors.Is(err, router.ErrNoCurrentWorker):
		s.writeRejection(w, err)
	case transient && s.rt.Distributed():
		writeError(w, http.StatusBadGateway, fmt.Errorf("no worker acknowledged the batch, but it may still apply (a worker that lost its reply holds it, and the router replays it to every worker that returns); do not blindly re-submit — verify before retrying: %v", err))
	case errors.Is(err, router.ErrUnavailable):
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	// Stats come from the published snapshot, so this endpoint is lock-free
	// like the query endpoints.
	snap := s.ex.Snapshot()
	stats := graph.ComputeViewStats(snap)
	cs := s.q.CacheStats()
	body := map[string]any{
		"nodes": stats.Nodes, "edges": stats.Edges,
		"maxInDegree": stats.MaxInDegree, "zeroInDegree": stats.ZeroInDeg,
		"cacheHits": cs.Hits, "cacheMisses": cs.Misses, "cachedVectors": cs.Cached,
		"cacheEvictions":     cs.Evictions,
		"cacheInvalidations": cs.Invalidations.Total(),
		"sharedFlights":      cs.Shared,
		"graphVersion":       snap.Version(),
	}
	if s.hot != nil {
		hs := s.hot.Stats()
		body["hotEntries"] = hs.Entries
		body["hotStaleEntries"] = hs.StaleEntries
		body["hotTrackedSources"] = hs.TrackedSources
		body["hotHits"] = hs.Hits
		body["hotMisses"] = hs.Misses
		body["hotInvalidations"] = hs.Invalidations
		body["hotBuilds"] = hs.Builds
		body["hotBuildErrors"] = hs.BuildsStopped + hs.BuildsRaced
		body["hotDiscardedBuildSeconds"] = hs.StoppedBuildSeconds + hs.RacedBuildSeconds
		body["hotEvictions"] = hs.Evictions
		body["hotYields"] = hs.Yields
		body["hotWatermark"] = s.st.LastBatch()
		body["hotLagBatches"] = hs.LagBatches
	}
	if s.st != nil {
		// In-process store: publication effectiveness counters. A healthy
		// dynamic workload shows shardsReused >> shardsRebuilt — the point of
		// per-shard publication.
		ss := s.st.Stats()
		body["shards"] = ss.Shards
		body["shardStride"] = ss.Stride
		body["shardPublications"] = ss.Publications
		body["shardNoopPublishes"] = ss.NoopPublishes
		body["shardAbortedPublishes"] = ss.AbortedPublishes
		body["shardsRebuilt"] = ss.ShardsRebuilt
		body["shardsReused"] = ss.ShardsReused
		body["shardEdgesReEncoded"] = ss.EdgesReEncoded
		// Snapshot GC visibility: how many superseded generations queries
		// still pin, and roughly how much memory that holds live.
		gc := s.st.GC()
		body["snapshotRetiredTotal"] = gc.RetiredTotal
		body["snapshotRetiredLive"] = gc.RetiredLive
		body["snapshotRetiredBytes"] = gc.RetiredBytes
		body["snapshotCurrentBytes"] = gc.CurrentBytes
	}
	if s.wal != nil {
		// Durable write plane: log volume, sync cadence, checkpoint
		// coverage. lastBatch - walCheckpointBatch is the replay debt a
		// crash right now would pay on the next boot.
		ws := s.wal.Stats()
		body["walAppends"] = ws.Appends
		body["walAppendedBytes"] = ws.AppendedBytes
		body["walSyncs"] = ws.Syncs
		body["walRotations"] = ws.Rotations
		body["walCheckpoints"] = ws.Checkpoints
		body["walSegments"] = ws.SegmentsLive
		body["walSegmentBytes"] = ws.SegmentBytes
		body["walLastBatch"] = ws.LastBatch
		body["walCheckpointBatch"] = ws.LastCheckpoint
	}
	if s.rt.Distributed() {
		body["routerWorkers"] = s.rt.WorkerStats()
		rc := s.rt.Counters()
		body["routerShardFetches"] = rc.ShardFetches
		body["routerShardFetchErrors"] = rc.ShardFetchErrors.Total()
		body["routerShardBlocksCarried"] = rc.ShardBlocksCarried
		body["routerShardBatches"] = rc.ShardBatches
		body["routerApplyRetries"] = rc.ApplyRetries
		// Replicated read plane: failover/hedging activity and the write
		// plane's replica book-keeping (skipped demoted members, ring
		// batches replayed to re-admit them).
		body["routerFailovers"] = rc.Failovers
		body["routerHedgesSent"] = rc.HedgesSent
		body["routerHedgesWon"] = rc.HedgesWon
		body["routerApplySkips"] = rc.ApplySkips
		body["routerCatchupBatches"] = rc.CatchupBatches
	}
	writeJSON(w, http.StatusOK, body)
}
