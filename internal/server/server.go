// Package server implements the HTTP similarity-search service behind
// cmd/probesim-server: top-k and single-source SimRank queries over a
// live, updatable graph, with the core.Querier result cache in front.
//
// Concurrency contract: every read endpoint — similarity queries AND the
// analysis endpoints (/join/topk, /components) — is lock-free: each runs
// against the immutable snapshot the core.Executor has published, so an
// edge update never stalls a read and a long read never stalls an update.
// Edge updates serialize among themselves on the write mutex, mutate the
// backend, and publish a fresh snapshot before releasing it; in-flight
// reads keep the (consistent) snapshot they grabbed. Cache invalidation
// is automatic via the snapshot version counter.
//
// The server runs over either backend: the monolithic *graph.Graph
// (every publication rebuilds the full CSR snapshot) or the sharded
// shard.Store (NewSharded; publication re-encodes only the shards an
// update touched, and /stats reports the rebuild counters).
//
// Serving contract (see admission.go): every route is instrumented
// (per-route latency histograms, in-flight gauges and outcome counters
// behind /metrics) and admission-controlled per Limits — bounded
// in-flight queries with 503+Retry-After rejection, queue-depth write
// backpressure, and a per-request query timeout the kernels honor at
// their budget checkpoints (504 on expiry). Partial results are never
// served.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
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

// mutator is the write-side surface the edge endpoints need; both
// *graph.Graph and *shard.Store provide it.
type mutator interface {
	AddEdge(u, v graph.NodeID) error
	RemoveEdge(u, v graph.NodeID) error
}

// Server is the http.Handler for the similarity service.
type Server struct {
	mu    sync.Mutex // serializes backend mutations
	mut   mutator
	st    *shard.Store   // non-nil only for the sharded backend
	rt    *router.Router // non-nil only for the routed backend
	ex    *core.Executor
	q     *core.Querier
	opt   core.Options
	limit int
	mux   *http.ServeMux

	// Admission control (see admission.go): the active limits, the
	// similarity-query in-flight counter, the analysis-scan semaphore
	// (capacity MaxJoinInflight; joins used to queue on the write mutex,
	// this keeps their O(n·query) fan-out bounded without ever blocking
	// queries or writes), and the write-queue depth gauge behind the
	// backpressure rejection.
	limits        Limits
	queryInflight atomic.Int64
	joinSem       chan struct{}
	writeWaiters  atomic.Int64

	// Multi-tenant QoS plane (see tenantslo.go): the tenant registry
	// (SetTenants) resolves X-ProbeSim-Tenant to class policy; fairq,
	// built when both tenants and MaxInflight are configured, replaces
	// immediate-503 query admission with deficit-weighted fair queueing;
	// slo (SetSLO) tracks per-tenant rolling-window objectives behind
	// /debug/slo and the probesim_slo_* metric families. svcTimeEWMA is
	// the observed per-query service time (ns) behind the load-derived
	// Retry-After hint.
	tenants     *tenant.Registry
	fairq       *tenant.FairQueue
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

	// wal, when set (SetWAL), is the durability point of the in-process
	// write path: every edge batch is appended (and fsynced, per policy)
	// BEFORE it is applied and acknowledged, so an HTTP 200 means the
	// batch survives a crash. In routed topologies the workers own their
	// logs instead and this stays nil.
	wal *wal.Log

	// hot, when set (EnableHotTier), answers hot-source queries from
	// precomputed entries at microsecond latency; cold sources fall
	// through to the live path completely unchanged. Responses carry
	// X-ProbeSim-Tier saying which path served them, and ?tier=live
	// forces the live kernel for any single request.
	hot *hotidx.Tier
}

// New builds a Server over g. cacheCap bounds the Querier cache; limit
// bounds the number of entries /single-source returns. The server takes
// ownership of g: all further mutations must go through the HTTP API.
func New(g *graph.Graph, opt core.Options, cacheCap, limit int) *Server {
	return newServer(g, nil, core.NewExecutor(g, opt), opt, cacheCap, limit)
}

// NewSharded builds a Server over a sharded snapshot store: queries and
// analysis reads serve from the composite per-shard snapshot, and each
// update batch republishes only the shards it touched. The server takes
// ownership of st.
func NewSharded(st *shard.Store, opt core.Options, cacheCap, limit int) *Server {
	return newServer(st, st, core.NewExecutorOn(st, opt), opt, cacheCap, limit)
}

// NewRouted builds a Server over a shard router: queries fan out to the
// router's engines (in-process or probesim-shardd workers over RPC),
// writes broadcast through its write plane, and /stats + /metrics grow
// per-worker health/version rows and router counters. The single-engine
// local topology (router.NewLocal) is exactly NewSharded with extra
// steps removed — the fast path serves the store's own snapshots.
func NewRouted(rt *router.Router, opt core.Options, cacheCap, limit int) *Server {
	s := newServer(rt, rt.LocalStore(), core.NewExecutorOn(rt, opt), opt, cacheCap, limit)
	s.rt = rt
	return s
}

// SetWAL arms the durable write path: every subsequent edge batch is
// appended to lg before it is applied, and acknowledged only once the
// log has it (under the log's fsync policy). Requires the sharded
// backend (NewSharded, or NewRouted over a local store) — the batch-id
// watermark lives in shard.Store. Call before serving.
func (s *Server) SetWAL(lg *wal.Log) {
	if s.st == nil {
		panic("server: SetWAL requires the sharded backend")
	}
	s.wal = lg
}

// EnableHotTier arms the hot-source index tier: a space-saving sketch on
// the query path discovers hot sources, a background refresher
// precomputes their single-source vectors with the SAME options the live
// path serves (so a hot answer is byte-identical to the live kernel's),
// and the store's applied-batch stream invalidates exactly the entries
// each write batch can affect. Requires the sharded backend — the
// dependency filter speaks shard indices, and the tier subscribes to
// shard.Store's applied-batch hook. Call after SetWAL (when durable) and
// before serving; the returned tier is the caller's to Close on
// shutdown. maxEntries <= 0 and refreshBudget <= 0 take the tier's
// defaults.
func (s *Server) EnableHotTier(maxEntries int, refreshBudget time.Duration) *hotidx.Tier {
	if s.st == nil {
		panic("server: EnableHotTier requires the sharded backend")
	}
	if s.hot != nil {
		panic("server: hot tier already enabled")
	}
	var rb core.Budget
	if refreshBudget > 0 {
		rb.Timeout = refreshBudget
	}
	tier := hotidx.New(s.ex, s.st.Partition().Shift(), hotidx.Config{
		MaxEntries:    maxEntries,
		Opt:           s.opt,
		RefreshBudget: rb,
		Yield:         s.hotYield,
	})
	s.st.SubscribeApplied(tier.OnBatch)
	if s.wal != nil {
		s.wal.Subscribe(func(id uint64, ops []wal.Op) { tier.ObserveAppend(id) })
	}
	s.hot = tier
	return tier
}

// hotYield tells the background refresher when foreground admission
// wants the CPU: past half the hard in-flight limit (or the soft
// degrade watermark, when only that is configured), builds step aside.
// Refresh work never occupies admission slots either way — it runs on
// the tier's own goroutine below the HTTP layer — so this is about CPU,
// not slots: live queries keep their full MaxInflight headroom under a
// refresh storm.
func (s *Server) hotYield() bool {
	n := s.queryInflight.Load()
	if max := s.limits.MaxInflight; max > 0 {
		half := int64(max) / 2
		if half < 1 {
			half = 1
		}
		return n >= half
	}
	if soft := s.limits.SoftInflight; soft > 0 {
		return n >= int64(soft)
	}
	return false
}

func newServer(mut mutator, st *shard.Store, ex *core.Executor, opt core.Options, cacheCap, limit int) *Server {
	if limit <= 0 {
		limit = 100
	}
	s := &Server{
		mut:     mut,
		st:      st,
		ex:      ex,
		q:       core.NewQuerierOn(ex, cacheCap),
		opt:     opt,
		limit:   limit,
		mux:     http.NewServeMux(),
		joinSem: make(chan struct{}, 1),
		reg:     promexpo.NewRegistry(),
		// Bounds double from one half of the tightest production εa up
		// through the widest degradation the admission layer can apply
		// (DegradeFactor caps εa at 0.9).
		epsaHist: promexpo.NewValueHistogram([]float64{0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8}),
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
	scores, err := s.singleSourceScores(w, r, u)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	res := core.SelectTopK(scores, u, k)
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
	scores, err := s.singleSourceScores(w, r, u)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	type entry struct {
		v graph.NodeID
		s float64
	}
	var nonzero []entry
	for v, sc := range scores {
		if graph.NodeID(v) != u && sc > 0 {
			nonzero = append(nonzero, entry{graph.NodeID(v), sc})
		}
	}
	sort.Slice(nonzero, func(i, j int) bool {
		if nonzero[i].s != nonzero[j].s {
			return nonzero[i].s > nonzero[j].s
		}
		return nonzero[i].v < nonzero[j].v
	})
	top := nonzero
	if len(top) > s.limit {
		top = top[:s.limit]
	}
	m := make(map[string]float64, len(top))
	for _, e := range top {
		m[strconv.Itoa(int(e.v))] = e.s
	}
	body := map[string]any{
		"query": u, "nonzero": len(nonzero), "scores": m,
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
	var op shard.EdgeOp
	switch r.Method {
	case http.MethodPost:
		op = shard.EdgeOp{U: u, V: v}
	case http.MethodDelete:
		op = shard.EdgeOp{Remove: true, U: u, V: v}
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST or DELETE"))
		return
	}
	// The unlock is deferred (idempotently) so a panic inside the critical
	// section — net/http recovers handler panics and keeps serving — can
	// never wedge the write mutex; response writing happens after the
	// explicit early unlock, off the critical section.
	s.mu.Lock()
	unlock := s.unlockOnce()
	defer unlock()
	if err := s.applyOps([]shard.EdgeOp{op}); err != nil {
		unlock()
		writeApplyError(w, err)
		return
	}
	// Publish the new snapshot before releasing the write mutex so the
	// next query (and the next mutator) sees the update. Publication
	// deliberately does NOT inherit the request context: the mutation is
	// already applied (and logged), and aborting the publish on a client
	// disconnect would leave the write invisible to every query until the
	// next write republishes — a staleness window no other client could
	// see or fix. Publication is bounded work (O(batch + touched shards)
	// on the sharded backend), so completing it unconditionally is safe.
	snap := s.ex.Refresh()
	unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"edges": snap.NumEdges(), "version": snap.Version(),
	})
}

// errDurability marks a write-ahead-log append failure: the batch was
// NOT acknowledged and NOT applied (append-then-apply means a log that
// cannot take the batch stops it before the store sees it). Clients get
// a 500 and may retry; the graph is unchanged.
type errDurability struct{ err error }

func (e errDurability) Error() string { return fmt.Sprintf("durability: %v", e.err) }
func (e errDurability) Unwrap() error { return e.err }

// writeApplyError maps a write-path failure: a durability failure is the
// server's fault (500), anything else is a rejected batch (400).
func writeApplyError(w http.ResponseWriter, err error) {
	var de errDurability
	if errors.As(err, &de) {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// applyOps is the single in-process write path: append to the
// write-ahead log (when armed), then apply to the backend, all under the
// caller-held write mutex. The routed distributed path does not come
// here (it broadcasts identified batches through the router, and the
// workers own durability); see handleEdgeBatch.
func (s *Server) applyOps(ops []shard.EdgeOp) error {
	if s.st != nil {
		var id uint64
		if s.wal != nil {
			wops := make([]wal.Op, len(ops))
			for i, op := range ops {
				wops[i] = wal.Op{Remove: op.Remove, U: op.U, V: op.V}
			}
			var err error
			if id, err = s.wal.Append(0, wops); err != nil {
				return errDurability{err}
			}
		}
		_, err := s.st.ApplyBatch(id, ops)
		return err
	}
	// Monolithic backend: per-op apply with rollback, no batch ids (the
	// monolithic *graph.Graph carries no watermark; -data-dir requires
	// the sharded backend).
	applied := make([]shard.EdgeOp, 0, len(ops))
	apply := func(op shard.EdgeOp) error {
		if op.Remove {
			return s.mut.RemoveEdge(op.U, op.V)
		}
		return s.mut.AddEdge(op.U, op.V)
	}
	for i, op := range ops {
		if err := apply(op); err != nil {
			for j := len(applied) - 1; j >= 0; j-- {
				inv := applied[j]
				inv.Remove = !inv.Remove
				if rerr := apply(inv); rerr != nil {
					panic(fmt.Sprintf("server: rollback failed at op %d: %v", j, rerr))
				}
			}
			kind := "add"
			if op.Remove {
				kind = "remove"
			}
			return fmt.Errorf("op %d (%s %d->%d): %w; batch rolled back", i, kind, op.U, op.V, err)
		}
		applied = append(applied, op)
	}
	return nil
}

// unlockOnce returns an idempotent unlocker for the write mutex (which
// the caller must already hold): call it early to end the critical
// section, and defer it so panics cannot leave the mutex held.
func (s *Server) unlockOnce() func() {
	locked := true
	return func() {
		if locked {
			locked = false
			s.mu.Unlock()
		}
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
		"cacheEvictions": cs.Evictions,
		"sharedFlights":  cs.Shared,
		"graphVersion":   snap.Version(),
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
		body["hotBuildErrors"] = hs.BuildErrors
		body["hotEvictions"] = hs.Evictions
		body["hotYields"] = hs.Yields
		body["hotWatermark"] = hs.Watermark
		body["hotWALWatermark"] = hs.WALWatermark
		body["hotLagBatches"] = hs.LagBatches
	}
	if s.st != nil {
		// Sharded backend: publication effectiveness counters. A healthy
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
	if s.rt != nil && s.rt.Distributed() {
		body["routerWorkers"] = s.rt.WorkerStats()
		rc := s.rt.Counters()
		body["routerShardFetches"] = rc.ShardFetches
		body["routerShardFetchErrors"] = rc.ShardFetchErrors
		body["routerShardBatches"] = rc.ShardBatches
		body["routerWalkHandoffs"] = rc.WalkHandoffs
		// Batched walk plane: round trips (routerWalkBatches), the walks
		// they carried (routerWalkDelegated; the ratio is the average
		// batch size) and the segments the router stepped itself over
		// cached blocks with no RPC at all (routerWalkLocalSegments).
		body["routerWalkBatches"] = rc.WalkBatches
		body["routerWalkDelegated"] = rc.WalkDelegated
		body["routerWalkLocalSegments"] = rc.WalkLocalSegments
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
