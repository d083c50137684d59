package hotidx

import (
	"context"
	"fmt"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/power"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// TestHotTierAccuracyHarness is the accuracy harness the issue asks for:
// on an Erdős–Rényi and a power-law graph, hot-tier answers must (a) be
// bit-identical to the live kernel on the current published snapshot —
// the tier's actual contract — and (b) stay within the kernel's εa
// guarantee against exact SimRank ground truth, both in steady state and
// immediately after a churn burst. The mirror graph g receives exactly
// the edge ops the store applies, so post-churn ground truth is
// computable.
func TestHotTierAccuracyHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("ground-truth power iteration is slow")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"erdos-renyi", gen.ErdosRenyi(200, 1200, 31)},
		{"power-law", gen.PreferentialAttachment(200, 4, 37)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			st, ex, tier := newTierOver(t, g, Config{MaxEntries: 8})
			sources := []graph.NodeID{3, 17, 42}

			for _, u := range sources {
				tier.Touch(u)
				waitHot(t, tier, ex, u)
			}
			checkHotAnswers(t, g, ex, tier, sources, "steady state")

			// Churn burst: 5 batches of edge additions, mirrored into g so
			// ground truth stays computable. Immediately after — before the
			// refresher has any chance to catch up — every hot-tier answer
			// must STILL match the live kernel: invalidated entries miss
			// (and the fallthrough is the live kernel itself), surviving
			// entries are bit-identical by the dependency-set argument.
			rng := xrand.New(99)
			n := g.NumNodes()
			for b := 0; b < 5; b++ {
				var ops []shard.EdgeOp
				for len(ops) < 4 {
					u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					if u == v {
						continue
					}
					if err := g.AddEdge(u, v); err != nil {
						continue // duplicate; pick another
					}
					ops = append(ops, shard.EdgeOp{U: u, V: v})
				}
				if _, err := st.ApplyBatch(0, ops); err != nil {
					t.Fatalf("churn batch %d: %v", b, err)
				}
			}
			ex.Refresh()
			checkHotAnswers(t, g, ex, tier, sources, "immediately after churn")

			// Let the tier re-converge, then hold it to the same bar again.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if s := tier.Stats(); s.StaleEntries == 0 {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			if s := tier.Stats(); s.StaleEntries != 0 {
				t.Fatalf("tier never re-converged after churn: %+v", s)
			}
			checkHotAnswers(t, g, ex, tier, sources, "after catch-up")
		})
	}
}

// checkHotAnswers asserts, for each source, that the answer the serving
// path would produce (hot entry if fresh, live kernel otherwise) is
// bit-identical to the live kernel and within 2εa of exact SimRank. The
// 2εa slack over the kernel's own εa keeps the harness off the δ failure
// tail; regressions this is meant to catch (serving a stale or
// wrong-snapshot vector) produce errors far above it.
func checkHotAnswers(t *testing.T, g *graph.Graph, ex *core.Executor, tier *Tier, sources []graph.NodeID, phase string) {
	t.Helper()
	truth, err := power.SimRank(g, power.Options{})
	if err != nil {
		t.Fatalf("%s: ground truth: %v", phase, err)
	}
	view := ex.Snapshot()
	for _, u := range sources {
		live, err := core.SingleSource(context.Background(), view, u, testOpt())
		if err != nil {
			t.Fatalf("%s: live kernel for %d: %v", phase, u, err)
		}
		answer := live
		if r, ok := tier.SingleSource(view, u); ok {
			answer = r.Dense()
			assertBitIdentical(t, answer, live, fmt.Sprintf("%s: source %d", phase, u))
		}
		maxErr := 0.0
		row := truth.Row(u)
		for v := range answer {
			if d := answer[v] - row[v]; d > maxErr {
				maxErr = d
			} else if -d > maxErr {
				maxErr = -d
			}
		}
		if bound := 2 * testOpt().EpsA; maxErr > bound {
			t.Fatalf("%s: source %d: max error %.4f vs ground truth exceeds %.2f", phase, u, maxErr, bound)
		}
	}
}
