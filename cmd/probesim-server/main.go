// Command probesim-server exposes SimRank similarity search over HTTP: a
// small, production-shaped service wrapping the library with a result
// cache, demonstrating how a downstream system would deploy index-free
// SimRank behind an API with live graph updates. Over its own shard store
// the cache keeps each answer's read set and a write drops only the
// answers it touched; with -workers the cache is version-keyed and every
// write empties it. The cache is the server's one store of single-source
// answers: -cache bounds its LRU, and with -hot-sources the hot-source
// tier pins up to that many more answers in it, outside the LRU bound.
//
//	probesim-server -graph web.txt -addr :8080
//
//	GET  /topk?u=42&k=10          -> {"query":42,"results":[{"node":7,"score":0.31},...]}
//	GET  /single-source?u=42      -> {"query":42,"nonzero":1234,"scores":{"7":0.31,...}}  (top -limit entries)
//	POST /edges?u=1&v=2           -> add edge 1->2 (drops the cached answers that read node 1 or 2)
//	DELETE /edges?u=1&v=2         -> remove edge 1->2
//	GET  /stats                   -> graph, cache and shard-publication statistics
//	GET  /metrics                 -> Prometheus text: per-route latency histograms,
//	                                 in-flight gauges, timeout/rejection counters
//
// Queries run lock-free against the published immutable snapshot; updates
// serialize on a write mutex and republish.
//
// # Operational limits
//
// Every query route runs under -query-timeout (surfaced as HTTP 504 with
// Retry-After when it expires — the kernels stop at their next budget
// checkpoint, so an expired deadline never keeps burning CPU). At most
// -max-inflight similarity queries execute concurrently, each holding a
// slot of one fair queue; without -tenants every query is the one
// default tenant, which never waits, so excess requests are rejected
// immediately with 503 + Retry-After. Writers queue on the mutation
// mutex at most -max-write-queue deep; beyond that edge batches get 503
// backpressure instead of piling onto the lock. -max-walks and
// -max-probe-work cap each query's work directly (503 when exhausted).
//
// The graph is partitioned by source node into up to -shards shards
// (default 16), each with its own CSR snapshot: an edge update
// republishes only the shards it touched (O(batch + touched shards)
// instead of O(n+m)), which keeps high-churn dynamic workloads cheap.
//
// With -workers the graph is not loaded here at all: the server routes
// every query to a fleet of probesim-shardd workers over the binary
// shard RPC (internal/rpcwire): each view generation fetches its shard
// blocks from their owners once, in one request per group, and queries
// walk and probe over them here — bit-identically to the single-process
// answer for the same seed. The grammar is replica
// groups: semicolons separate shard owners, commas separate replicas of
// one owner, so "a:9101,b:9101;c:9101,d:9101" is two shard groups of
// two replicas each (and "a:9101;b:9101" is the old unreplicated
// two-owner fleet — note commas CHANGED meaning from owners to
// replicas). Writes broadcast to every current replica under identified
// apply-once batches; reads fail over to a group peer on transport
// errors and, with -hedge, race a second replica after a p99-derived
// delay (first answer wins, the loser is canceled — bit-identity is
// unaffected because every replica serves the same blocks). A replica
// that misses writes is demoted, replayed from the in-memory batch ring
// by the health pass, and re-admitted; only a whole group dying
// surfaces as HTTP 502. Per-replica health/version/currency and
// failover/hedge counters appear on /stats and /metrics.
//
// With -soft-inflight=N (< -max-inflight), admission pressure degrades
// instead of rejecting: queries above the watermark run with
// -degrade-factor× wider εa (a quadratically smaller walk budget), carry
// an X-ProbeSim-Degraded header naming the εa they actually got, and
// bypass the result cache. Only above -max-inflight does the server 503.
//
// # Tenancy and SLOs
//
// With -tenants="search=latency-strict,crawl=throughput-batch" requests
// carry their tenant in the X-ProbeSim-Tenant header (absent = the
// "default" tenant) and take their admission slot as that tenant, under
// deficit-weighted fair queueing: each tenant gets a bounded wait queue
// and a class-derived weight, and a request 503s only when its OWN
// tenant's queue is full — a batch tenant saturating the server no
// longer starves an interactive one. With -max-inflight 0 slots are
// unbounded and tenant accounting still counts every query. Class
// policy also governs degradation (latency-strict tenants always get
// full-accuracy answers) and per-tenant budget caps. Clients can pin
// an accuracy floor with X-ProbeSim-Max-Epsa: the server
// answers 503 instead of silently serving a wider εa than the header
// allows. -slo / -slo-default attach per-tenant p99+availability
// objectives measured over -slo-window; the windowed state (including
// error-budget burn rates) is served on /debug/slo and exported as
// tenant-labeled probesim_slo_* and probesim_tenant_* families on
// /metrics.
//
// # Durability
//
// With -data-dir the write plane is durable: every acknowledged edge
// batch is appended to a CRC32C-framed write-ahead log (fsynced per
// -fsync) BEFORE it is applied, the store is checkpointed in the
// background every -checkpoint-every batches (truncating covered log
// segments), and on boot the server recovers the newest checkpoint plus
// the log tail — an acknowledged write survives kill -9. A data dir that
// already holds state wins over -graph (the graph file is only the
// bootstrap seed for an empty dir). In routed mode (-workers)
// durability belongs on the workers (probesim-shardd -data-dir), not
// here.
//
// # Probes
//
// /healthz answers 200 for the process lifetime (liveness: restarting
// would not help). /readyz answers 200 only while the server is ready
// and not draining; on SIGINT/SIGTERM it flips to 503 BEFORE the
// listener closes, so load balancers drain the instance first.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain-timeout; queries that outlive the
// drain are canceled through the same context seam and unwind with a
// 499 "request canceled" response (the connection is being torn down —
// the status exists for logs and metrics). With -data-dir the shutdown
// path also takes a final checkpoint and closes the log cleanly, so the
// next boot replays nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"probesim"
	"probesim/internal/obs"
	"probesim/internal/persist"
	"probesim/internal/qtrace"
	"probesim/internal/router"
	"probesim/internal/server"
	"probesim/internal/shard"
	"probesim/internal/slo"
	"probesim/internal/tenant"
	"probesim/internal/wal"
)

// fatal logs at error level and exits — the slog-era log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// tenantPlane builds the tenant registry and SLO tracker from the flag
// surface. -tenants arms multi-tenancy (and with it fair-queued
// admission); -slo or a -tenants registry arms SLO tracking, so a
// single-tenant deployment can still watch its default tenant's burn
// rate by setting -slo alone. Both come back nil when neither flag is
// set — the pre-tenant server behavior, exactly.
func tenantPlane(tenantSpec, tenantClass, sloSpec, sloDefault string, sloWindow time.Duration) (*tenant.Registry, *slo.Tracker) {
	var reg *tenant.Registry
	if tenantSpec != "" {
		defClass, err := tenant.ParseClass(tenantClass)
		if err != nil {
			fatal("parsing -tenant-default-class", "err", err)
		}
		reg = tenant.NewRegistry(defClass, nil)
		if err := tenant.ParseSpec(reg, tenantSpec); err != nil {
			fatal("parsing -tenants", "err", err)
		}
		names := make([]string, 0, len(reg.All()))
		for _, t := range reg.All() {
			names = append(names, t.Name+"="+t.Class.String())
		}
		slog.Info("tenant plane armed", "tenants", names, "default_class", defClass.String())
	}
	if sloSpec == "" && reg == nil {
		return reg, nil
	}
	def, err := slo.ParseObjective(sloDefault)
	if err != nil {
		fatal("parsing -slo-default", "err", err)
	}
	perTenant, err := slo.ParseObjectives(sloSpec)
	if err != nil {
		fatal("parsing -slo", "err", err)
	}
	slotr := slo.New(slo.Config{Window: sloWindow, Default: def, PerTenant: perTenant})
	slog.Info("slo tracking armed", "window", sloWindow, "default_objective", sloDefault, "objectives", len(perTenant))
	return reg, slotr
}

func main() {
	var (
		path       = flag.String("graph", "", "edge-list graph file to serve")
		binary     = flag.Bool("binary", false, "graph file is in binary format")
		undirected = flag.Bool("undirected", false, "treat edge list as undirected")
		addr       = flag.String("addr", ":8080", "listen address")
		epsA       = flag.Float64("epsa", 0.1, "absolute error bound eps_a")
		delta      = flag.Float64("delta", 0.01, "failure probability")
		c          = flag.Float64("c", 0.6, "SimRank decay factor")
		seed       = flag.Uint64("seed", 1, "random seed")
		cacheCap   = flag.Int("cache", 64, "cached single-source answers under LRU eviction (each keeps its non-zero scores and, over a local store, the nodes it read; a write drops only the answers it touched); answers -hot-sources pins are not counted")
		limit      = flag.Int("limit", 100, "max entries returned by /single-source")
		hotSources = flag.Int("hot-sources", 0, "pin up to this many hot sources' single-source answers in the result cache, outside its -cache bound, pre-building the missing ones in the background (0 = off; not in routed mode)")
		hotBudget  = flag.Duration("hot-refresh-budget", 200*time.Millisecond, "per-entry time budget for background hot-source builds")
		shards     = flag.Int("shards", server.DefaultShards, "partition the graph into up to this many shards")
		rebuildW   = flag.Int("rebuild-workers", 0, "bound on concurrent shard rebuilds (0 = GOMAXPROCS)")
		workers    = flag.String("workers", "", "probesim-shardd replica groups (semicolons separate shard owners, commas separate replicas: \"a,b;c,d\"); route queries to these workers instead of serving the graph in-process")
		healthIvl  = flag.Duration("health-interval", 5*time.Second, "with -workers: background per-replica health/version probe + catch-up interval")
		hedge      = flag.Bool("hedge", true, "with replicated -workers groups: race a second replica when a read exceeds the group's p99-derived delay")
		hedgeMin   = flag.Duration("hedge-min", 2*time.Millisecond, "lower clamp on the hedge delay")
		hedgeMax   = flag.Duration("hedge-max", 200*time.Millisecond, "upper clamp on the hedge delay (also the cold-start delay)")

		dataDir   = flag.String("data-dir", "", "durable state directory: write-ahead log + checkpoints; recovered on boot")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always (every acknowledged batch is on disk), interval, or off")
		fsyncIvl  = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync cadence under -fsync=interval")
		ckptEvery = flag.Int64("checkpoint-every", 1024, "checkpoint after this many batches beyond the last checkpoint")
		segBytes  = flag.Int64("segment-bytes", 64<<20, "WAL segment rotation threshold")

		queryTimeout = flag.Duration("query-timeout", 10*time.Second, "per-query deadline (0 = none); expiry returns HTTP 504")
		maxInflight  = flag.Int("max-inflight", 64, "concurrent similarity queries before 503 rejection (0 = unlimited)")
		softInflight = flag.Int("soft-inflight", 0, "degrade watermark: above this many in-flight queries (and below -max-inflight), serve wider-epsa answers with an X-ProbeSim-Degraded header instead of rejecting (0 = off)")
		degradeF     = flag.Float64("degrade-factor", 2, "epsa multiplier for degraded queries")
		maxJoins     = flag.Int("max-join-inflight", 1, "concurrent /join/topk + /components scans")
		maxWriteQ    = flag.Int("max-write-queue", 64, "writers queued on the mutation lock before 503 backpressure (0 = unlimited)")
		maxWalks     = flag.Int64("max-walks", 0, "per-query cap on √c-walk trials (0 = the plan's derived count)")
		maxWork      = flag.Int64("max-probe-work", 0, "per-query cap on probe edge traversals (0 = uncapped)")
		drainTO      = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain window for in-flight requests")

		tenantSpec  = flag.String("tenants", "", "arm multi-tenant admission: \"name=class,...\" with classes latency-strict, throughput-batch, degrade-tolerant; requests name their tenant in the X-ProbeSim-Tenant header, queries fair-queue per tenant instead of 503ing at -max-inflight (empty = single-tenant behavior)")
		tenantClass = flag.String("tenant-default-class", "degrade-tolerant", "with -tenants: class of the default tenant and of names not listed in -tenants")
		sloSpec     = flag.String("slo", "", "per-tenant SLO objectives \"name=p99:availability,...\" (e.g. \"search=50ms:0.999,crawl=2s:0.99\"); arms /debug/slo and the probesim_slo_* metric families")
		sloDefault  = flag.String("slo-default", "1s:0.99", "objective for tenants without an explicit -slo entry")
		sloWindow   = flag.Duration("slo-window", time.Minute, "rolling measurement window for SLO state and burn rates")

		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off; bypasses admission control)")
		traceSlow   = flag.Duration("trace-slow", 0, "log every query slower than this as a structured slow_query record (0 = off)")
		traceSample = flag.Float64("trace-sample", 0, "probability an ordinary query records a full span trace; ?trace=1 always does")
	)
	flag.Parse()
	if err := obs.InitLogging(*logFormat); err != nil {
		fmt.Fprintf(os.Stderr, "probesim-server: %v\n", err)
		os.Exit(1)
	}
	if *path == "" && *workers == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "probesim-server: missing -graph (or -workers, or a recoverable -data-dir)")
		os.Exit(1)
	}
	reg, slotr := tenantPlane(*tenantSpec, *tenantClass, *sloSpec, *sloDefault, *sloWindow)
	opt := probesim.Options{
		C: *c, EpsA: *epsA, Delta: *delta, Seed: *seed,
		Budget: probesim.Budget{MaxWalks: *maxWalks, MaxProbeWork: *maxWork},
	}
	var srv *server.Server
	if *workers != "" {
		// Routed topology: the graph lives on the probesim-shardd workers;
		// this process only routes, merges and caches. -graph is ignored.
		if *dataDir != "" {
			fatal("-data-dir belongs on the workers in routed mode (probesim-shardd -data-dir); the routing tier keeps no durable state")
		}
		specs, err := router.ParseGroups(*workers)
		if err != nil {
			fatal("parsing -workers", "err", err)
		}
		groups := make([][]router.ShardEngine, len(specs))
		nworkers, replicated := 0, false
		for gi, members := range specs {
			for _, a := range members {
				groups[gi] = append(groups[gi], router.NewRemoteEngine(a))
				nworkers++
			}
			if len(members) > 1 {
				replicated = true
			}
		}
		rt, err := router.NewReplicated(groups)
		if err != nil {
			fatal("assembling worker topology", "err", err)
		}
		if *hotSources > 0 {
			// The tier's dependency filter subscribes to an in-process
			// shard.Store's applied-batch stream; a pure routing tier has
			// none.
			slog.Warn("-hot-sources requires an in-process shard store; disabled in routed mode")
		}
		if *hedge && replicated {
			rt.SetHedge(router.HedgePolicy{Enabled: true, MinDelay: *hedgeMin, MaxDelay: *hedgeMax})
		}
		stopHealth := rt.StartHealth(*healthIvl)
		defer stopHealth()
		srv = server.NewRouted(rt, opt, *cacheCap, *limit)
		snap := rt.PublishedView()
		slog.Info("routing",
			"nodes", snap.NumNodes(), "edges", snap.NumEdges(), "version", snap.Version(),
			"addr", *addr, "groups", len(groups), "workers", nworkers,
			"hedge", *hedge && replicated, "topology", *workers)
		serve(srv, addr, queryTimeout, maxInflight, softInflight, degradeF, maxJoins, maxWriteQ, drainTO, traceSlow, traceSample, debugAddr, reg, slotr, nil)
		return
	}
	loadGraph := func() (*probesim.Graph, error) {
		if *path == "" {
			return nil, fmt.Errorf("probesim-server: -data-dir %s holds no recoverable state and no -graph was given to bootstrap it", *dataDir)
		}
		f, err := os.Open(*path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if *binary {
			return probesim.ReadBinaryGraph(f)
		}
		return probesim.LoadEdgeList(f, *undirected)
	}
	// In-process topology: one shard store, recovered from (or
	// bootstrapped into) -data-dir when durability is on, loaded from
	// -graph otherwise.
	var (
		st      *shard.Store
		lg      *wal.Log
		cleanup func()
		attrs   []any
	)
	if *dataDir != "" {
		// An acknowledged /edges or /edges/batch is on disk before its
		// 200: the log is armed below, before serving.
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal("parsing -fsync", "err", err)
		}
		var rstats persist.RecoveryStats
		st, lg, rstats, err = persist.OpenStore(*dataDir, *shards, *rebuildW,
			wal.Options{Sync: policy, SyncEvery: *fsyncIvl, SegmentBytes: *segBytes}, loadGraph)
		if err != nil {
			fatal("opening data dir", "dir", *dataDir, "err", err)
		}
		if rstats.Bootstrapped {
			slog.Info("bootstrapped data dir (initial checkpoint written)", "dir", *dataDir, "graph", *path)
		} else {
			slog.Info("recovered data dir",
				"dir", *dataDir, "checkpoint_through", rstats.CheckpointThrough,
				"covered", rstats.Covered, "replayed", rstats.Replayed, "skipped", rstats.ReplaySkipped,
				"torn_bytes", rstats.TornBytes, "watermark", rstats.LastBatch)
		}
		ck := persist.StartCheckpointer(st, lg, *ckptEvery, time.Second)
		cleanup = func() {
			if err := ck.Stop(); err != nil {
				slog.Error("final checkpoint", "err", err)
			}
			if err := lg.Close(); err != nil {
				slog.Error("closing wal", "err", err)
			}
		}
		attrs = []any{"fsync", policy.String(), "checkpoint_every", *ckptEvery}
	} else {
		g, err := loadGraph()
		if err != nil {
			fatal("loading graph", "err", err)
		}
		st = shard.NewStore(g, *shards, *rebuildW)
	}
	srv = server.NewSharded(st, opt, *cacheCap, *limit)
	if lg != nil {
		srv.SetWAL(lg)
	}
	if *hotSources > 0 {
		tier := srv.EnableHotTier(*hotSources, *hotBudget)
		defer tier.Close()
		slog.Info("hot-source tier armed", "max_entries", *hotSources, "refresh_budget", *hotBudget)
	}
	slog.Info("serving", append([]any{
		"nodes", st.NumNodes(), "edges", st.NumEdges(), "addr", *addr,
		"shards", st.NumShards(), "stride", st.Partition().Stride()}, attrs...)...)
	serve(srv, addr, queryTimeout, maxInflight, softInflight, degradeF, maxJoins, maxWriteQ, drainTO, traceSlow, traceSample, debugAddr, reg, slotr, cleanup)
}

// serve installs the admission limits and runs the HTTP server with
// graceful signal-driven drain; shared by the in-process and routed
// topologies. cleanup, when non-nil, runs after the drain completes —
// the durable path uses it to take a final checkpoint and close the log
// so the next boot replays nothing.
func serve(srv *server.Server, addr *string, queryTimeout *time.Duration, maxInflight, softInflight *int, degradeF *float64, maxJoins, maxWriteQ *int, drainTO *time.Duration, traceSlow *time.Duration, traceSample *float64, debugAddr *string, reg *tenant.Registry, slotr *slo.Tracker, cleanup func()) {
	srv.SetLimits(server.Limits{
		MaxInflight:     *maxInflight,
		SoftInflight:    *softInflight,
		DegradeFactor:   *degradeF,
		MaxJoinInflight: *maxJoins,
		MaxWriteQueue:   *maxWriteQ,
		QueryTimeout:    *queryTimeout,
	})
	srv.SetTenants(reg)
	srv.SetSLO(slotr)
	// Tracing is always armed: ?trace=1 must work without a restart, and
	// the armed-but-unsampled path costs one id draw and a header per
	// request. -trace-slow/-trace-sample add the slow-query log and
	// probabilistic sampling on top.
	srv.SetTracer(qtrace.NewTracer(*traceSlow, *traceSample, 0, nil))
	if *debugAddr != "" {
		ln, err := obs.ListenDebug(*debugAddr, map[string]http.Handler{
			"/debug/queries": http.HandlerFunc(srv.ServeHTTP),
		})
		if err != nil {
			fatal("debug listener", "addr", *debugAddr, "err", err)
		}
		slog.Info("pprof", "addr", ln.Addr().String())
		defer ln.Close()
	}
	slog.Info("limits",
		"query_timeout", *queryTimeout, "max_inflight", *maxInflight,
		"soft_inflight", *softInflight, "degrade_factor", *degradeF,
		"max_join_inflight", *maxJoins, "max_write_queue", *maxWriteQ,
		"trace_slow", *traceSlow, "trace_sample", *traceSample)

	// Every request context descends from baseCtx via BaseContext, so the
	// shutdown path below can cancel straggling queries through the same
	// context seam a per-request timeout uses. baseCtx stays live during
	// the drain window — draining means letting in-flight work finish.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	procCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	hs := &http.Server{
		Addr:        *addr,
		Handler:     srv,
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	var err error
	select {
	case err = <-errCh:
		fatal("listen", "err", err)
	case <-procCtx.Done():
	}
	// Readiness goes 503 first: a load balancer polling /readyz stops
	// routing to this instance before the listener starts refusing.
	srv.Health().SetDraining()
	slog.Info("signal received, draining in-flight requests", "drain_timeout", *drainTO)
	// Shutdown stops the listener and waits for in-flight handlers up to
	// the drain deadline. Past it, cancel baseCtx: every straggler's
	// query stops at its next kernel checkpoint and unwinds (499), after
	// which a short second Shutdown reaps the connections.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	err = hs.Shutdown(drainCtx)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		slog.Warn("drain window expired; canceling straggling queries")
		cancelBase()
		finalCtx, cancelFinal := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelFinal()
		if err := hs.Shutdown(finalCtx); err != nil {
			slog.Error("forced shutdown", "err", err)
		}
	case err != nil:
		slog.Error("shutdown", "err", err)
	}
	if cleanup != nil {
		cleanup()
	}
	slog.Info("bye")
}
