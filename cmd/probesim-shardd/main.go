// Command probesim-shardd is a shard worker: it loads the graph, builds a
// sharded snapshot store, and serves the shard-engine RPC protocol
// (internal/rpcwire) over TCP for a routing probesim-server.
//
//	probesim-shardd -graph web.txt -shards 16 -addr :9090 -data-dir d0
//	probesim-shardd -graph web.txt -shards 16 -addr :9091 -data-dir d1
//	probesim-server -workers "host0:9090,host1:9091" -addr :8080
//
// Every worker holds the whole graph and serves every shard: the
// workers of a router's -workers list form one replica set. Every
// worker must be started from the same graph with the same -shards so
// the routers' version checks agree. The worker serves:
//
//   - shard adjacency blocks (a router fetches every block its view
//     lacks before a query's first walk step, split into one request per
//     serving worker, and walks and probes over them itself),
//   - the write plane (edge batches + publication), driven by the router
//     so the fleet stays in lockstep with the serving tier.
//
// With -data-dir the worker's write plane is durable: every identified
// Apply batch from the router is appended to a CRC32C-framed write-ahead
// log (fsynced per -fsync) BEFORE it is applied, the store is
// checkpointed in the background, and on boot the worker recovers the
// newest checkpoint plus the log tail. Batches apply AT MOST ONCE per id
// (the durable watermark), so a router that lost an Apply reply simply
// retries the same batch — the worker that already holds it
// acknowledges without re-applying, which is what closes the lost-reply
// window. A data dir with state wins over -graph; an empty one is
// bootstrapped from it.
//
// Every worker holds the whole graph, so every worker decides each batch
// the same way and a rejected batch is rejected fleet-wide.
//
// The last 8 published generations stay resolvable so in-flight queries
// read the exact snapshot they pinned while churn publishes newer ones.
//
// Replication: the router broadcasts writes to every worker of its
// -workers list and splits and fails reads over between them, so a
// fleet of N workers keeps serving with N-1 of them down; each worker
// should use its OWN -data-dir.
//
// With -health-addr the worker also serves HTTP /healthz (liveness) and
// /readyz (readiness) on a separate listener: /readyz goes 503 the
// moment a shutdown signal arrives — before the RPC listener closes —
// so orchestrators stop routing first, then the worker exits.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"probesim"
	"probesim/internal/health"
	"probesim/internal/obs"
	"probesim/internal/persist"
	"probesim/internal/qtrace"
	"probesim/internal/router"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

// fatal logs at error level and exits — the slog-era log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		path       = flag.String("graph", "", "edge-list graph file to serve")
		binary     = flag.Bool("binary", false, "graph file is in binary format")
		undirected = flag.Bool("undirected", false, "treat edge list as undirected")
		addr       = flag.String("addr", ":9090", "RPC listen address")
		shards     = flag.Int("shards", 16, "partition the graph into up to this many shards (must match every worker and router)")
		rebuildW   = flag.Int("rebuild-workers", 0, "bound on concurrent shard rebuilds (0 = GOMAXPROCS)")
		healthAddr = flag.String("health-addr", "", "serve HTTP /healthz and /readyz on this address (empty = off)")

		dataDir   = flag.String("data-dir", "", "durable state directory: write-ahead log + checkpoints; recovered on boot")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always, interval, or off")
		fsyncIvl  = flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync cadence under -fsync=interval")
		ckptEvery = flag.Int64("checkpoint-every", 1024, "checkpoint after this many batches beyond the last checkpoint")
		segBytes  = flag.Int64("segment-bytes", 64<<20, "WAL segment rotation threshold")

		logFormat   = flag.String("log-format", "text", "log output format: text or json")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and /debug/queries on this address (empty = off)")
		traceSlow   = flag.Duration("trace-slow", 0, "log every request slower than this as a structured slow_query record (0 = off)")
		traceSample = flag.Float64("trace-sample", 0, "probability an untraced request records a local span trace; router-traced requests always record")
	)
	flag.Parse()
	if err := obs.InitLogging(*logFormat); err != nil {
		fmt.Fprintf(os.Stderr, "probesim-shardd: %v\n", err)
		os.Exit(1)
	}
	if *path == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "probesim-shardd: missing -graph (or a recoverable -data-dir)")
		os.Exit(1)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "probesim-shardd: -shards must be >= 1")
		os.Exit(1)
	}
	loadGraph := func() (*probesim.Graph, error) {
		if *path == "" {
			return nil, fmt.Errorf("probesim-shardd: -data-dir %s holds no recoverable state and no -graph was given to bootstrap it", *dataDir)
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
	var st *shard.Store
	var lg *wal.Log
	var ck *persist.Checkpointer
	if *dataDir != "" {
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
		ck = persist.StartCheckpointer(st, lg, *ckptEvery, time.Second)
	} else {
		g, err := loadGraph()
		if err != nil {
			fatal("loading graph", "err", err)
		}
		st = shard.NewStore(g, *shards, *rebuildW)
	}
	// Bootstrap churns through a full graph load; hand that garbage back
	// to the OS now so the worker's resident set reflects what it actually
	// serves.
	debug.FreeOSMemory()
	eng := router.NewLocalEngine(st)
	if lg != nil {
		eng.SetWAL(lg)
	}
	srv, ln, err := router.ListenAndServe(*addr, eng)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	// The worker tracer is always armed: router-traced requests record
	// spans regardless (they ride the reply back), and this adds the
	// worker's own slow-request log, local sampling and /debug/queries.
	tracer := qtrace.NewTracer(*traceSlow, *traceSample, 0, nil)
	srv.SetTracer(tracer)
	if *debugAddr != "" {
		dln, err := obs.ListenDebug(*debugAddr, map[string]http.Handler{
			"/debug/queries": obs.QueriesHandler(tracer),
			"/metrics":       obs.MetricsHandler("probesim-shardd"),
		})
		if err != nil {
			fatal("debug listener", "addr", *debugAddr, "err", err)
		}
		slog.Info("pprof", "addr", dln.Addr().String())
		defer dln.Close()
	}
	var hstate health.State
	if *healthAddr != "" {
		mux := http.NewServeMux()
		hstate.Register(mux)
		// Scrapers usually reach workers through the probe port, so the
		// build-info exposition rides here too (and on -debug-addr).
		mux.Handle("/metrics", obs.MetricsHandler("probesim-shardd"))
		hln, err := net.Listen("tcp", *healthAddr)
		if err != nil {
			fatal("health listener", "addr", *healthAddr, "err", err)
		}
		go func() {
			if err := http.Serve(hln, mux); err != nil {
				slog.Warn("health listener stopped", "err", err)
			}
		}()
		hstate.SetReady(true)
		slog.Info("probes", "addr", hln.Addr().String())
	}
	slog.Info("serving",
		"nodes", st.NumNodes(), "edges", st.NumEdges(), "addr", ln.Addr().String(),
		"shards", st.NumShards(),
		"stride", st.Partition().Stride(), "durable", lg != nil)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Readiness drops before the RPC listener closes, so anything
	// watching /readyz stops routing to this replica first.
	hstate.SetDraining()
	slog.Info("signal received, closing")
	if err := srv.Close(); err != nil {
		slog.Error("close", "err", err)
	}
	if ck != nil {
		if err := ck.Stop(); err != nil {
			slog.Error("final checkpoint", "err", err)
		}
	}
	if lg != nil {
		if err := lg.Close(); err != nil {
			slog.Error("closing wal", "err", err)
		}
	}
	slog.Info("bye")
}
