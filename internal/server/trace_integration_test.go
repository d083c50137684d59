package server

// End-to-end tracing over a real fleet: one ?trace=1 query through a
// four-worker TCP replica set with a dead worker (failover) and a slow
// worker (hedging) must come back as ONE stitched span tree — the
// admission wait, every router-side RPC attempt (the hedge winner and
// the canceled loser), and the worker-side shard fetches grafted under
// the same 128-bit id.

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
	"probesim/internal/router"
	"probesim/internal/shard"
)

// delayEngine stalls the data plane by a fixed amount — a replica on a
// congested box. Serving it over TCP keeps the hedge race on real wire.
type delayEngine struct {
	*router.LocalEngine
	delay time.Duration
}

func (d *delayEngine) stall(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d.delay):
		return nil
	}
}

func (d *delayEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	if err := d.stall(ctx); err != nil {
		return nil, err
	}
	return d.LocalEngine.ResolveShards(ctx, version, ps)
}

// startTCPWorker serves eng over TCP and returns the address plus a
// shutdown func.
func startTCPWorker(t *testing.T, eng router.ShardEngine) (string, func()) {
	t.Helper()
	srv := router.NewServer(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	stop := func() { srv.Close() }
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

type spanView struct {
	name, attrs string
	parent      float64
}

func spanViews(t *testing.T, body map[string]any) []spanView {
	t.Helper()
	raw, ok := body["trace"].([]any)
	if !ok {
		t.Fatalf("?trace=1 response has no trace array: %v", body)
	}
	out := make([]spanView, 0, len(raw))
	for _, v := range raw {
		m := v.(map[string]any)
		sv := spanView{name: m["name"].(string)}
		if a, ok := m["attrs"].(string); ok {
			sv.attrs = a
		}
		if p, ok := m["parent"].(float64); ok {
			sv.parent = p
		}
		out = append(out, sv)
	}
	return out
}

func TestTracedQueryAcrossHedgedFailoverFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("sockets")
	}
	g := gen.PreferentialAttachment(300, 4, 21)
	mk := func() *shard.Store { return shard.NewStore(g, 8, 0) }

	// The cold view splits its 8 blocks into one chunk per worker, each
	// starting at its own worker and failing over (or hedging) to the
	// next one in the set. Chunk 0 starts at a worker that will die and
	// fails over to A; chunk 2 starts at a 25ms-delayed worker and hedges
	// to B, which wins the race while the slow primary is canceled.
	addrDead, stopDead := startTCPWorker(t, router.NewLocalEngine(mk()))
	addrA, _ := startTCPWorker(t, router.NewLocalEngine(mk()))
	addrSlow, _ := startTCPWorker(t, &delayEngine{router.NewLocalEngine(mk()), 25 * time.Millisecond})
	addrB, _ := startTCPWorker(t, router.NewLocalEngine(mk()))

	var engines []router.ShardEngine
	for _, addr := range []string{addrDead, addrA, addrSlow, addrB} {
		re := router.NewRemoteEngine(addr)
		t.Cleanup(func() { re.Close() })
		engines = append(engines, re)
	}
	rt, err := router.New(engines...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	// A fixed 3ms hedge delay: long enough that a dead worker's
	// connection error lands first (failover, not hedge), short enough
	// that the 25ms worker always loses the race.
	rt.SetHedge(router.HedgePolicy{Enabled: true, MinDelay: 3 * time.Millisecond, MaxDelay: 3 * time.Millisecond})

	srv := NewRouted(rt, core.Options{Seed: 3, NumWalks: 200}, 4, 50)
	srv.SetTracer(qtrace.NewTracer(0, 0, 8, slog.New(slog.NewTextHandler(io.Discard, nil))))

	// Kill the first worker BEFORE the first query: the traced
	// query must be the one that fetches the view's blocks, because once a
	// view is warm every later query runs with zero read RPCs — nothing
	// left to hedge or fail over. (The router's construction-time Meta
	// broadcast already warmed the connection pools.)
	stopDead()

	rec, body := do(t, srv, http.MethodGet, "/topk?u=2&k=5&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("traced query: %d (%v)", rec.Code, body)
	}

	// One id stitches the whole thing: response header == inlined body id.
	hdr := rec.Header().Get("X-ProbeSim-Trace-Id")
	if hdr == "" {
		t.Fatal("no X-ProbeSim-Trace-Id response header")
	}
	if body["traceId"] != hdr {
		t.Fatalf("header id %q != body traceId %v", hdr, body["traceId"])
	}

	spans := spanViews(t, body)
	var admission, hedgeWon, canceled, failover, workerFetch, workerLabeled bool
	for _, s := range spans {
		switch {
		case s.name == "admission":
			admission = true
		case strings.Contains(s.attrs, "kind=hedge") && strings.Contains(s.attrs, "outcome=ok"):
			hedgeWon = true
		case strings.Contains(s.attrs, "outcome=canceled"):
			canceled = true
		case strings.Contains(s.attrs, "kind=failover"):
			failover = true
		}
		if s.name == "worker.resolve_shards" {
			workerFetch = true
			if strings.Contains(s.attrs, "worker=") {
				workerLabeled = true
			}
		}
	}
	if !admission {
		t.Error("no admission span")
	}
	if !hedgeWon {
		t.Error("no winning hedge span (kind=hedge outcome=ok)")
	}
	if !canceled {
		t.Error("no canceled-loser span (outcome=canceled)")
	}
	if !failover {
		t.Error("no failover span (kind=failover)")
	}
	if !workerFetch {
		t.Error("no grafted worker.resolve_shards span")
	}
	if !workerLabeled {
		t.Error("grafted worker span carries no worker= label")
	}
	if c := rt.Counters(); c.HedgesSent == 0 || c.HedgesWon == 0 || c.Failovers == 0 {
		t.Errorf("router counters disagree with the trace: %+v", c)
	}
	if t.Failed() {
		for _, s := range spans {
			t.Logf("span %-24s parent=%g attrs=%s", s.name, s.parent, s.attrs)
		}
	}

	// The trace also landed in the ring (forced traces are sampled).
	_, dq := do(t, srv, http.MethodGet, "/debug/queries")
	if dq["enabled"] != true {
		t.Fatalf("/debug/queries: %v", dq)
	}
	if qs, ok := dq["queries"].([]any); !ok || len(qs) == 0 {
		t.Fatalf("/debug/queries ring is empty: %v", dq)
	}
}
