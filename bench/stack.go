package main

// The systems under test, one function per topology. Each builds its stack
// the way cmd/probesim-server (and cmd/probesim-shardd for the routed
// workers) build it for the same flags, so a change to that wiring is
// mirrored here in one place.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"probesim"
	"probesim/internal/graph"
	"probesim/internal/persist"
	"probesim/internal/qtrace"
	"probesim/internal/router"
	"probesim/internal/server"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

const (
	shardCount       = 64
	hotSources       = 64
	cacheVectors     = 64                     // probesim-server -cache default
	topkLimit        = 100                    // probesim-server -limit default
	hotRefreshBudget = 200 * time.Millisecond // -hot-refresh-budget default
	checkpointEvery  = 1024                   // -checkpoint-every default
	healthInterval   = 5 * time.Second        // -health-interval default
)

// queryOptions are the query options of every workload: the paper's
// εa = 0.1, δ = 0.01, c = 0.6 in its full configuration.
var queryOptions = probesim.Options{C: 0.6, EpsA: 0.1, Delta: 0.01, Mode: probesim.ModeAuto, Seed: 1}

// serverLimits are cmd/probesim-server's flag defaults.
var serverLimits = server.Limits{
	MaxInflight:     64,
	DegradeFactor:   2,
	MaxJoinInflight: 1,
	MaxWriteQueue:   64,
	QueryTimeout:    10 * time.Second,
}

// stack is one built system under test.
type stack struct {
	g       *graph.Graph   // library stack: the graph the facade queries
	base    graph.View     // the graph as loaded, for the op stream's edge test
	edges   int64          // edge count as loaded
	url     string         // serving stacks: base URL of the HTTP server
	hot     bool           // the server runs the hot-source tier
	stores  []*shard.Store // serving stacks: every in-process store
	closers []func() error
}

func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	return errors.Join(errs...)
}

func loadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := probesim.LoadEdgeList(f, false)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return g, nil
}

// openLibrary is the paper-topk stack: the graph the probesim facade
// queries, nothing else.
func openLibrary(path, _ string, _ *ledger) (*stack, error) {
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	return &stack{g: g, base: g, edges: g.NumEdges()}, nil
}

// openSharded is probesim-server -shards 64 -hot-sources 64.
func openSharded(path, _ string, l *ledger) (*stack, error) {
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	st := shard.NewStore(g, shardCount, 0)
	srv := server.NewSharded(st, queryOptions, cacheVectors, topkLimit)
	tier := srv.EnableHotTier(hotSources, hotRefreshBudget)
	s := &stack{stores: []*shard.Store{st}, hot: true}
	s.closers = append(s.closers, func() error { tier.Close(); return nil })
	l.hookStore(st)
	return s, s.serve(srv, l)
}

// openDurable is probesim-server -data-dir <dir> -fsync always -shards 64,
// started on an empty data dir. It runs no hot tier (the binary's
// default): under churn the tier's rebuilds race the writes, and that
// race spread this workload's latencies and throughput by 14-23% over ten
// seeds.
func openDurable(path, dir string, l *ledger) (*stack, error) {
	st, lg, _, err := persist.OpenStore(dir, shardCount, 0, wal.Options{Sync: wal.SyncAlways},
		func() (*graph.Graph, error) { return loadGraph(path) })
	if err != nil {
		return nil, err
	}
	s := &stack{stores: []*shard.Store{st}}
	s.closers = append(s.closers, lg.Close)
	ck := persist.StartCheckpointer(st, lg, checkpointEvery, time.Second)
	s.closers = append(s.closers, ck.Stop)
	srv := server.NewSharded(st, queryOptions, cacheVectors, topkLimit)
	srv.SetWAL(lg)
	l.hookStore(st)
	l.hookWAL(lg)
	return s, s.serve(srv, l)
}

// openRouted is probesim-server -workers "a;b" over two probesim-shardd
// workers (-shards 64 -index i -group 2), here in-process but reached over
// loopback TCP. The routing tier runs no hot tier, as in the binary.
func openRouted(path, _ string, l *ledger) (*stack, error) {
	g, err := loadGraph(path)
	if err != nil {
		return nil, err
	}
	s := &stack{}
	groups := make([][]router.ShardEngine, 2)
	for i := range groups {
		st := shard.NewStore(g, shardCount, 0)
		ws, ln, err := router.ListenAndServe("127.0.0.1:0", router.NewLocalEngine(st, i, len(groups)))
		if err != nil {
			s.close()
			return nil, err
		}
		ws.SetTracer(qtrace.NewTracer(0, 0, 0, nil))
		s.closers = append(s.closers, ws.Close)
		s.stores = append(s.stores, st)
		l.hookStore(st)
		groups[i] = []router.ShardEngine{router.NewRemoteEngine(ln.Addr().String())}
	}
	rt, err := router.NewReplicated(groups)
	if err != nil {
		s.close()
		return nil, err
	}
	s.closers = append(s.closers, rt.Close)
	stop := rt.StartHealth(healthInterval)
	s.closers = append(s.closers, func() error { stop(); return nil })
	return s, s.serve(server.NewRouted(rt, queryOptions, cacheVectors, topkLimit), l)
}

// serve finishes a serving stack the way probesim-server's serve() does —
// default limits, no tenants, the tracer armed but not sampling — and
// returns once /readyz answers 200. In the traced run the ledger wraps
// the server's handler.
func (s *stack) serve(srv *server.Server, l *ledger) error {
	st := s.stores[0].Current()
	s.base, s.edges = st, st.NumEdges()
	srv.SetLimits(serverLimits)
	srv.SetTracer(qtrace.NewTracer(0, 0, 0, nil))
	var h http.Handler = srv
	if l != nil {
		l.next = srv
		h = l
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	s.closers = append(s.closers, func() error {
		err := hs.Close()
		<-served
		return err
	})
	s.url = "http://" + ln.Addr().String()
	if err := waitReady(s.url); err != nil {
		s.close()
		return err
	}
	return nil
}

func waitReady(url string) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after 30s (last error: %v)", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
