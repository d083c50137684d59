package core

import (
	"context"
	"math"
	"testing"

	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/power"
	"probesim/internal/xrand"
)

var allModes = []Mode{ModeAuto, ModeBasic, ModePruned, ModeBatch, ModeRandomized, ModeHybrid}

func TestPlanTheorem2Budget(t *testing.T) {
	for _, mode := range allModes {
		plan, err := PlanFor(Options{Mode: mode, EpsA: 0.08, C: 0.6}, 1000)
		if err != nil {
			t.Fatal(err)
		}
		sqrtC := math.Sqrt(0.6)
		total := plan.Eps + (1+plan.Eps)/(1-sqrtC)*plan.EpsP + plan.EpsT/2
		if total > 0.08+1e-12 {
			t.Errorf("mode %v: error budget %v exceeds εa", mode, total)
		}
		if plan.NumWalks <= 0 {
			t.Errorf("mode %v: non-positive walk count", mode)
		}
	}
}

func TestPlanWalkCountFormula(t *testing.T) {
	plan, err := PlanFor(Options{Mode: ModeBasic, EpsA: 0.1, Delta: 0.01, C: 0.6}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Ceil(3 * 0.6 / (0.1 * 0.1) * math.Log(100/0.01)))
	if plan.NumWalks != want {
		t.Fatalf("nr = %d, want %d", plan.NumWalks, want)
	}
}

func TestPlanOverrides(t *testing.T) {
	plan, err := PlanFor(Options{NumWalks: 77}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumWalks != 77 {
		t.Fatalf("NumWalks override ignored: %d", plan.NumWalks)
	}
}

func TestOptionValidation(t *testing.T) {
	g := graph.Toy()
	bad := []Options{
		{C: 1.5}, {C: -1}, {EpsA: 2}, {Delta: 2}, {Mode: Mode(99)},
	}
	for _, o := range bad {
		if _, err := SingleSource(context.Background(), g, 0, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if _, err := SingleSource(context.Background(), g, 99, Options{}); err == nil {
		t.Error("out-of-range query node accepted")
	}
	if _, err := TopK(context.Background(), g, 0, 0, Options{}); err == nil {
		t.Error("k = 0 accepted")
	}
}

// End-to-end εa guarantee against the Power Method ground truth, for every
// mode, on the toy graph (c = 0.25 as in the paper's example).
func TestGuaranteeToyGraph(t *testing.T) {
	g := graph.Toy()
	exact, err := power.SingleSource(g, graph.ToyA, power.Options{C: 0.25, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes {
		est, err := SingleSource(context.Background(), g, graph.ToyA, Options{
			C: 0.25, EpsA: 0.05, Delta: 0.01, Mode: mode, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := range est {
			if d := math.Abs(est[v] - exact[v]); d > 0.05 {
				t.Errorf("mode %v: |s̃(a,%s) − s| = %.4f > εa", mode, graph.ToyNames[v], d)
			}
		}
	}
}

// The same guarantee on random graphs with the paper's default c = 0.6.
func TestGuaranteeRandomGraph(t *testing.T) {
	rng := xrand.New(2024)
	g := randomGraph(rng, 60, 400)
	m, err := power.SimRank(g, power.Options{C: 0.6, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes {
		for _, u := range []graph.NodeID{3, 17, 42} {
			est, err := SingleSource(context.Background(), g, u, Options{
				C: 0.6, EpsA: 0.1, Delta: 0.01, Mode: mode, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for v := range est {
				if d := math.Abs(est[v] - m.At(u, graph.NodeID(v))); d > worst {
					worst = d
				}
			}
			if worst > 0.1 {
				t.Errorf("mode %v source %d: max error %.4f > εa", mode, u, worst)
			}
		}
	}
}

// Estimates are probabilities.
func TestEstimatesInRange(t *testing.T) {
	rng := xrand.New(8)
	g := randomGraph(rng, 40, 150)
	for _, mode := range allModes {
		est, err := SingleSource(context.Background(), g, 0, Options{Mode: mode, EpsA: 0.2, NumWalks: 300})
		if err != nil {
			t.Fatal(err)
		}
		if est[0] != 1 {
			t.Errorf("mode %v: s̃(u,u) = %v, want 1", mode, est[0])
		}
		for v, s := range est {
			if s < 0 || s > 1+1e-9 {
				t.Errorf("mode %v: s̃(u,%d) = %v out of range", mode, v, s)
			}
		}
	}
}

// A query node with no in-neighbors has s(u, v) = 0 for all v != u.
func TestZeroInDegreeSource(t *testing.T) {
	g := graph.New(4)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range allModes {
		est, err := SingleSource(context.Background(), g, 0, Options{Mode: mode, NumWalks: 100})
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v < 4; v++ {
			if est[v] != 0 {
				t.Errorf("mode %v: s̃(0,%d) = %v, want 0", mode, v, est[v])
			}
		}
	}
}

// Same seed, same configuration → identical output (replayability).
func TestDeterministicResults(t *testing.T) {
	rng := xrand.New(3)
	g := randomGraph(rng, 50, 250)
	for _, mode := range allModes {
		opt := Options{Mode: mode, EpsA: 0.15, Seed: 11, Workers: 3, NumWalks: 500}
		a, err := SingleSource(context.Background(), g, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SingleSource(context.Background(), g, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("mode %v: result not reproducible at node %d", mode, v)
			}
		}
	}
}

// Batched modes are worker-count invariant: the workers' walk trees merge
// into the tree serial insertion of the trial streams builds, and each
// path owns a seed-derived RNG stream.
func TestBatchWorkerInvariance(t *testing.T) {
	rng := xrand.New(4)
	g := randomGraph(rng, 50, 250)
	for _, mode := range []Mode{ModeBatch, ModeHybrid, ModeAuto} {
		a, err := SingleSource(context.Background(), g, 2, Options{Mode: mode, Seed: 9, Workers: 1, NumWalks: 400})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SingleSource(context.Background(), g, 2, Options{Mode: mode, Seed: 9, Workers: 7, NumWalks: 400})
		if err != nil {
			t.Fatal(err)
		}
		// Worker count only changes floating-point merge order, so results
		// agree to within accumulation round-off.
		for v := range a {
			if math.Abs(a[v]-b[v]) > 1e-12 {
				t.Fatalf("mode %v: workers changed result at node %d: %v vs %v", mode, v, a[v], b[v])
			}
		}
	}
}

// Batch mode must agree exactly with pruned per-walk mode when given the
// same seed: the tree only deduplicates probes, it does not change them.
func TestBatchEquivalentToPruned(t *testing.T) {
	rng := xrand.New(6)
	g := randomGraph(rng, 40, 200)
	// Workers=1 so the per-walk mode consumes the RNG in the same order as
	// the batch mode's tree construction.
	optA := Options{Mode: ModePruned, Seed: 21, Workers: 1, NumWalks: 300}
	optB := Options{Mode: ModeBatch, Seed: 21, Workers: 1, NumWalks: 300}
	a, err := SingleSource(context.Background(), g, 7, optA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleSource(context.Background(), g, 7, optB)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if math.Abs(a[v]-b[v]) > 1e-9 {
			t.Fatalf("batch diverged from per-walk at node %d: %v vs %v", v, a[v], b[v])
		}
	}
}

// Hybrid with an enormous switch constant never switches, so it must agree
// exactly with plain batch mode.
func TestHybridNoSwitchMatchesBatch(t *testing.T) {
	rng := xrand.New(14)
	g := randomGraph(rng, 40, 200)
	a, err := SingleSource(context.Background(), g, 1, Options{Mode: ModeBatch, Seed: 3, NumWalks: 300})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleSource(context.Background(), g, 1, Options{Mode: ModeHybrid, Seed: 3, NumWalks: 300, HybridC0: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("hybrid(no-switch) diverged at node %d", v)
		}
	}
}

// Hybrid with a tiny switch constant always switches, becoming a batched
// randomized estimator; it must still satisfy the error guarantee.
func TestHybridAlwaysSwitchAccuracy(t *testing.T) {
	g := graph.Toy()
	exact, err := power.SingleSource(g, graph.ToyA, power.Options{C: 0.25, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	est, err := SingleSource(context.Background(), g, graph.ToyA, Options{
		C: 0.25, EpsA: 0.05, Mode: ModeHybrid, Seed: 13, HybridC0: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range est {
		if d := math.Abs(est[v] - exact[v]); d > 0.05 {
			t.Errorf("always-switch hybrid: error %.4f at %s", d, graph.ToyNames[v])
		}
	}
}

func TestCompensateTruncation(t *testing.T) {
	rng := xrand.New(15)
	g := randomGraph(rng, 30, 120)
	base, err := SingleSource(context.Background(), g, 0, Options{Mode: ModePruned, Seed: 2, NumWalks: 200})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := SingleSource(context.Background(), g, 0, Options{Mode: ModePruned, Seed: 2, NumWalks: 200, CompensateTruncation: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := PlanFor(Options{Mode: ModePruned}, g.NumNodes())
	bumped := false
	for v := range base {
		if v == 0 {
			continue
		}
		switch {
		case base[v] == 0:
			if comp[v] != 0 {
				t.Fatalf("compensation invented mass at %d", v)
			}
		case comp[v] > base[v]:
			if math.Abs(comp[v]-base[v]-plan.EpsT/2) > 1e-12 {
				t.Fatalf("compensation at %d is %v, want εt/2 = %v", v, comp[v]-base[v], plan.EpsT/2)
			}
			bumped = true
		}
	}
	if !bumped {
		t.Fatal("compensation never applied")
	}
}

func TestTopKOrderingAndClamp(t *testing.T) {
	g := graph.Toy()
	res, err := TopK(context.Background(), g, graph.ToyA, 3, Options{C: 0.25, EpsA: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("top-3 returned %d entries", len(res))
	}
	// Table 2 says the true top-3 w.r.t. a is d (0.131), e (0.070), then
	// g/h (0.051 each); with εa = 0.02 the top-2 must be exact.
	if res[0].Node != graph.ToyD || res[1].Node != graph.ToyE {
		t.Fatalf("top-3 = %v, want d then e first", res)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
	// k larger than n-1 clamps.
	all, err := TopK(context.Background(), g, graph.ToyA, 100, Options{C: 0.25, EpsA: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != g.NumNodes()-1 {
		t.Fatalf("clamped top-k returned %d entries, want %d", len(all), g.NumNodes()-1)
	}
	for _, r := range all {
		if r.Node == graph.ToyA {
			t.Fatal("query node included in top-k")
		}
	}
}

// TestTopKMatchesDenseSelection pins the sparse answer to the dense one:
// SingleSourceRanked's Dense and Score must reproduce SingleSource's
// vector entry for entry, and its TopK — which TopK and Executor.TopK
// return — must be exactly SelectTopK over that vector (same nodes, same
// order, same score bits), for every mode and worker count, for k below,
// around and beyond the number of non-zero scores (where zero scorers
// fill in by ascending id).
func TestTopKMatchesDenseSelection(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"pa", gen.PreferentialAttachment(300, 4, 9)},
		{"er", gen.ErdosRenyi(300, 1200, 4)},
	} {
		name, g := tc.name, tc.g
		n := g.NumNodes()
		// The best-connected source, and the first with a single
		// in-neighbour: its estimate is nearly all zeros.
		var hub, sparse graph.NodeID = 0, -1
		for v := graph.NodeID(0); int(v) < n; v++ {
			if g.InDegree(v) > g.InDegree(hub) {
				hub = v
			}
			if sparse < 0 && g.InDegree(v) == 1 {
				sparse = v
			}
		}
		if sparse < 0 {
			t.Fatalf("%s: no source with one in-neighbour", name)
		}
		for _, mode := range allModes {
			for _, workers := range []int{1, 2, 3} {
				opt := Options{Mode: mode, Workers: workers, EpsA: 0.2, Seed: 3, NumWalks: 400}
				ex := NewExecutor(g, opt)
				for _, u := range []graph.NodeID{hub, sparse} {
					est, err := SingleSource(ctx, g, u, opt)
					if err != nil {
						t.Fatal(err)
					}
					r, err := SingleSourceRanked(ctx, g, u, opt)
					if err != nil {
						t.Fatal(err)
					}
					dense := r.Dense()
					if len(dense) != n {
						t.Fatalf("%s %v w=%d u=%d: Dense has %d entries, want %d", name, mode, workers, u, len(dense), n)
					}
					for v := range est {
						want := math.Float64bits(est[v])
						if math.Float64bits(dense[v]) != want || math.Float64bits(r.Score(graph.NodeID(v))) != want {
							t.Fatalf("%s %v w=%d u=%d: node %d: Dense %v, Score %v, want %v",
								name, mode, workers, u, v, dense[v], r.Score(graph.NodeID(v)), est[v])
						}
					}
					nonZero := 0
					for v, s := range est {
						if s != 0 && graph.NodeID(v) != u {
							nonZero++
						}
					}
					if len(r.Top) != nonZero {
						t.Fatalf("%s %v w=%d u=%d: Top holds %d scores, want the %d non-zero ones", name, mode, workers, u, len(r.Top), nonZero)
					}
					for _, k := range []int{1, 10, nonZero + 5, n - 1, n + 3} {
						want := SelectTopK(est, u, k)
						got, err := TopK(ctx, g, u, k, opt)
						if err != nil {
							t.Fatal(err)
						}
						fromEx, err := ex.TopK(ctx, u, k)
						if err != nil {
							t.Fatal(err)
						}
						for _, res := range [][]ScoredNode{got, fromEx, r.TopK(k)} {
							if len(res) != len(want) {
								t.Fatalf("%s %v w=%d u=%d k=%d: %d entries, want %d", name, mode, workers, u, k, len(res), len(want))
							}
							for i := range want {
								if res[i].Node != want[i].Node || math.Float64bits(res[i].Score) != math.Float64bits(want[i].Score) {
									t.Fatalf("%s %v w=%d u=%d k=%d: entry %d = %v, want %v", name, mode, workers, u, k, i, res[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestSelectTopK(t *testing.T) {
	est := []float64{1, 0.5, 0.9, 0.5, 0.1, 0}
	got := SelectTopK(est, 0, 3)
	want := []ScoredNode{{2, 0.9}, {1, 0.5}, {3, 0.5}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Ties break toward smaller ids even across the heap boundary.
	got = SelectTopK([]float64{1, 0.5, 0.5, 0.5, 0.5}, 0, 2)
	if got[0].Node != 1 || got[1].Node != 2 {
		t.Fatalf("tie-break wrong: %v", got)
	}
}

func TestModeStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range allModes {
		s := m.String()
		if s == "" || seen[s] {
			t.Fatalf("mode %d has bad name %q", int(m), s)
		}
		seen[s] = true
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode must still stringify")
	}
}
