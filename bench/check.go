package main

// Correctness gates. A mismatch is a failed op: it makes the result
// incorrect and the command exit non-zero.

import (
	"context"
	"fmt"
	"math"

	"probesim"
	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/power"
	"probesim/internal/xrand"
)

const (
	// checkEvery: every checkEvery-th op of a read-only window keeps its
	// answer for comparison with a reference executor.
	checkEvery = 25
	// finalChecks is how many answers are compared with the reference
	// once the churn is drained.
	finalChecks = 32
	// servingTol absorbs the few-ULP drift between hot-tier answers, which
	// are built at a different worker count, and live ones.
	servingTol = 1e-9
	// accuracySources is how many exact single-source answers the
	// accuracy gate compares against.
	accuracySources = 20
)

// tally counts checked operations and failures.
type tally struct{ attempted, failed int64 }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// reference answers top-k queries with core.Executor on its own copy of
// the base graph.
type reference struct {
	ex    *core.Executor
	k     int
	cache map[int32][]scored
}

func newReference(g *graph.Graph, k int) *reference {
	return &reference{ex: core.NewExecutor(g, queryOptions), k: k, cache: make(map[int32][]scored)}
}

func (r *reference) topK(u int32) ([]scored, error) {
	if ans, ok := r.cache[u]; ok {
		return ans, nil
	}
	res, err := r.ex.TopK(context.Background(), graph.NodeID(u), r.k)
	if err != nil {
		return nil, err
	}
	ans := toScored(res)
	r.cache[u] = ans
	return ans, nil
}

func toScored(res []core.ScoredNode) []scored {
	out := make([]scored, len(res))
	for i, s := range res {
		out[i] = scored{Node: int32(s.Node), Score: s.Score}
	}
	return out
}

// sameTopK compares two top-k answers. With tol 0 they must be identical.
// Otherwise scores must agree position by position within tol, and a node
// in only one of the lists must score within tol of the k-th score: a tie
// at the cut may break either way under ULP drift.
func sameTopK(got, want []scored, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	if tol == 0 {
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	inWant := make(map[int32]bool, len(want))
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > tol {
			return false
		}
		inWant[want[i].Node] = true
	}
	inGot := make(map[int32]bool, len(got))
	for _, s := range got {
		inGot[s.Node] = true
	}
	if len(want) == 0 {
		return true
	}
	cut := want[len(want)-1].Score
	for _, s := range got {
		if !inWant[s.Node] && math.Abs(s.Score-cut) > tol {
			return false
		}
	}
	for _, s := range want {
		if !inGot[s.Node] && math.Abs(s.Score-cut) > tol {
			return false
		}
	}
	return true
}

// accuracyGate compares ProbeSim with power-method SimRank on a 500-node
// preferential-attachment graph: the largest absolute error over every
// node of accuracySources single-source answers must be at most εa.
func accuracyGate(seed uint64, t *tally) error {
	g := gen.PreferentialAttachment(500, 4, 3)
	exact, err := power.SimRank(g, power.Options{C: queryOptions.C})
	if err != nil {
		return fmt.Errorf("power method: %w", err)
	}
	rng := xrand.New(xrand.New(seed).SplitState(streamAccuracy))
	for _, u := range rng.Sample(g.NumNodes(), accuracySources) {
		est, err := probesim.SingleSource(context.Background(), g, graph.NodeID(u), queryOptions)
		if err != nil {
			return fmt.Errorf("probesim, source %d: %w", u, err)
		}
		worst := 0.0
		for v, s := range exact.Row(graph.NodeID(u)) {
			worst = max(worst, math.Abs(est[v]-s))
		}
		ok := worst <= queryOptions.EpsA
		if !ok {
			logf("accuracy gate: source %d max error %.4f > εa %.2f", u, worst, queryOptions.EpsA)
		}
		t.add(ok)
	}
	return nil
}
