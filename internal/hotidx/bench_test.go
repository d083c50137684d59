package hotidx

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// benchOpt is the live kernel's option set in the bench rig.
var benchOpt = core.Options{EpsA: 0.2, Seed: 1}

// benchRig is a serving stack sized like a small production deployment:
// a 5000-node power-law graph behind a sharded store, live kernel at
// εa = 0.2, hot tier tracking the head of a Zipf(1.1) source mix.
func benchRig(tb testing.TB) (*shard.Store, *core.Executor, *Tier) {
	tb.Helper()
	g := gen.PreferentialAttachment(5000, 4, 41)
	st := shard.NewStore(g, 16, 0)
	ex := core.NewExecutorOn(st, benchOpt)
	q := core.NewQuerierOn(ex, 64)
	st.SubscribeApplied(q.Follow(st.Version))
	tier := New(q, Config{
		MaxEntries:    16,
		RefreshBudget: core.Budget{Timeout: 5 * time.Second},
		MinHits:       1,
		Interval:      2 * time.Millisecond,
	})
	tb.Cleanup(tier.Close)
	return st, ex, tier
}

func warmHotSet(tb testing.TB, ex *core.Executor, tier *Tier, z *Zipf, minEntries int) {
	tb.Helper()
	for i := 0; i < 5000; i++ {
		tier.Touch(z.Next())
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if tier.Stats().Entries >= minEntries {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("hot set never warmed to %d entries: %+v", minEntries, tier.Stats())
}

// BenchmarkHotVsLive compares the two serving paths on the same source:
// the hot tier's index probe vs the full live kernel. The issue's
// acceptance bar (hot p50 >= 10x faster at Zipf s=1.1) is asserted by
// TestZipfBenchSmoke; this benchmark is the per-path microscope.
func BenchmarkHotVsLive(b *testing.B) {
	_, ex, tier := benchRig(b)
	z := NewZipf(5000, 1.1, 7)
	warmHotSet(b, ex, tier, z, 8)
	hot := tier.Hot(1)[0].Node
	view := ex.Snapshot()
	if _, ok := tier.SingleSource(view, hot); !ok {
		b.Fatalf("hottest source %d not resident", hot)
	}

	b.Run("hot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := tier.SingleSource(view, hot); !ok {
				b.Fatal("hot entry vanished mid-benchmark")
			}
		}
	})
	b.Run("live", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.SingleSourceRanked(context.Background(), view, hot, benchOpt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func percentileU64(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// TestZipfBenchSmoke is the acceptance benchmark, gated behind
// PROBESIM_BENCH_OUT (the path to write the JSON report to) so regular
// test runs stay fast. It replays a Zipf(s=1.1) source mix through the
// tiered serving path, measures hot vs live latency, then turns on a
// write storm and samples the exported refresh-lag distribution. It
// fails unless hot p50 is >= 10x faster than live p50.
func TestZipfBenchSmoke(t *testing.T) {
	out := os.Getenv("PROBESIM_BENCH_OUT")
	if out == "" {
		t.Skip("set PROBESIM_BENCH_OUT=<path> to run the Zipf bench smoke")
	}
	st, ex, tier := benchRig(t)
	const n, skew = 5000, 1.1
	z := NewZipf(n, skew, 7)
	warmHotSet(t, ex, tier, z, 8)

	var hotLat, liveLat []time.Duration
	deadline := time.Now().Add(60 * time.Second)
	for (len(hotLat) < 3000 || len(liveLat) < 200) && time.Now().Before(deadline) {
		u := z.Next()
		view := ex.Snapshot()
		t0 := time.Now()
		if _, ok := tier.SingleSource(view, u); ok {
			hotLat = append(hotLat, time.Since(t0))
			continue
		}
		if len(liveLat) >= 2000 {
			continue // enough live samples; don't burn the wall clock
		}
		if _, err := core.SingleSourceRanked(context.Background(), view, u, benchOpt); err != nil {
			t.Fatalf("live query for %d: %v", u, err)
		}
		liveLat = append(liveLat, time.Since(t0))
	}
	if len(hotLat) < 100 || len(liveLat) < 50 {
		t.Fatalf("not enough samples: %d hot, %d live (stats %+v)", len(hotLat), len(liveLat), tier.Stats())
	}

	// Write storm: one writer applying 4-edge batches as fast as it can
	// for ~1.5s while this goroutine samples the exported staleness bound.
	stop := make(chan struct{})
	stormDone := make(chan int)
	go func() {
		rng := xrand.New(131)
		applied := 0
		seen := make(map[[2]graph.NodeID]bool)
		for {
			select {
			case <-stop:
				stormDone <- applied
				return
			default:
			}
			var ops []shard.EdgeOp
			for len(ops) < 4 {
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if u == v || seen[[2]graph.NodeID{u, v}] {
					continue
				}
				seen[[2]graph.NodeID{u, v}] = true
				ops = append(ops, shard.EdgeOp{U: u, V: v})
			}
			// A random pair may already exist in the generated graph; that
			// rejects the whole batch, which is fine for a storm.
			if _, err := st.ApplyBatch(0, ops); err == nil {
				applied++
			}
			ex.Refresh()
		}
	}()
	var lags []uint64
	stormEnd := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(stormEnd) {
		lags = append(lags, tier.Stats().LagBatches)
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	applied := <-stormDone
	after := tier.Stats()
	failedFrac := float64(after.BuildsStopped+after.BuildsRaced) / float64(max(after.Builds, 1))

	sort.Slice(hotLat, func(i, j int) bool { return hotLat[i] < hotLat[j] })
	sort.Slice(liveLat, func(i, j int) bool { return liveLat[i] < liveLat[j] })
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	hotP50, hotP99 := percentile(hotLat, 0.50), percentile(hotLat, 0.99)
	liveP50, liveP99 := percentile(liveLat, 0.50), percentile(liveLat, 0.99)

	report := map[string]any{
		"workload": map[string]any{"nodes": n, "zipf_s": skew, "hot_capacity": 16, "eps_a": 0.2},
		"hot": map[string]any{
			"samples": len(hotLat), "p50_ns": hotP50.Nanoseconds(), "p99_ns": hotP99.Nanoseconds(),
		},
		"live": map[string]any{
			"samples": len(liveLat), "p50_ns": liveP50.Nanoseconds(), "p99_ns": liveP99.Nanoseconds(),
		},
		"speedup_p50": float64(liveP50) / float64(hotP50),
		"write_storm": map[string]any{
			"batches_applied": applied,
			"lag_batches": map[string]any{
				"samples": len(lags),
				"p50":     percentileU64(lags, 0.50),
				"p99":     percentileU64(lags, 0.99),
				"max":     lags[len(lags)-1],
			},
		},
		"failed_build_frac":   failedFrac,
		"entries_after_storm": after.Entries,
		"tier_stats":          after,
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatalf("create %s: %v", out, err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatalf("write report: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close report: %v", err)
	}
	t.Logf("hot p50=%v p99=%v (%d samples); live p50=%v p99=%v (%d samples); speedup p50 %.0fx; storm lag max %d over %d applied batches; failed builds %.3f of %d; %d entries after the storm",
		hotP50, hotP99, len(hotLat), liveP50, liveP99, len(liveLat), float64(liveP50)/float64(hotP50), lags[len(lags)-1], applied,
		failedFrac, after.Builds, after.Entries)

	if hotP50*10 > liveP50 {
		t.Fatalf("hot p50 %v is not >= 10x faster than live p50 %v", hotP50, liveP50)
	}
}
