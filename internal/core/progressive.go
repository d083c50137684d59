package core

// Progressive (any-time) top-k: an extension in the spirit of the paper's
// conclusion ("lightweight approaches ... with higher effectiveness"). The
// static bound runs nr = 3c/ε²·ln(n/δ) walks no matter what the query
// looks like; but a top-k query does not need uniformly small error — it
// needs the k-th and (k+1)-th candidates *separated*. TopKProgressive runs
// walks in doubling rounds and maintains per-candidate empirical-Bernstein
// confidence radii (Maurer & Pontil 2009), which shrink with the actual
// estimator variance rather than the worst case: per-trial estimates are
// tiny probabilities for almost every node, so their radii collapse orders
// of magnitude faster than the Chernoff radius the static bound plans for.
// The failure budget is split δ_R = δ/(R(R+1)) across rounds so stopping
// at any round is sound, and union-bounded over the n candidates.
//
// The query stops as soon as
//
//   - every node in the current top-k set has a lower confidence bound at
//     least the highest upper bound outside the set (the top-k set is then
//     exactly right with probability 1 − δ, regardless of εa), or
//   - 2·max_v radius(v) <= εa (Definition 2 satisfied via the ranking
//     argument: s(u,v_i) >= s̃(v_i) − r(v_i) >= s̃(v'_i) − r(v_i) >=
//     s(u,v'_i) − r(v_i) − r(v'_i)), or
//   - the static walk budget is exhausted (never worse than TopK in walk
//     count).
//
// On well-separated queries this uses a small fraction of the static walk
// budget; the E-A12 experiment and its benchmark quantify it.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/probe"
	"probesim/internal/walk"
	"probesim/internal/xrand"
)

// ProgressiveStats reports how a progressive query stopped.
type ProgressiveStats struct {
	// Walks is the number of √c-walk trials actually run.
	Walks int
	// BudgetWalks is the static bound nr the query was allowed.
	BudgetWalks int
	// Rounds is the number of doubling rounds.
	Rounds int
	// Radius is the largest confidence radius among the returned nodes:
	// each returned estimate is within Radius of the truth with
	// probability 1 − δ.
	Radius float64
	// Separated reports whether the run stopped on rank separation
	// (true) rather than on reaching the εa radius or the budget.
	Separated bool
}

// progressiveStartWalks is the first round's walk count; rounds double
// from here. Small enough that easy queries stop almost immediately, large
// enough that first-round variance estimates are meaningful.
const progressiveStartWalks = 256

// TopKProgressive answers an approximate top-k query (Definition 2) with
// adaptive cost: it satisfies the same guarantee as TopK with parameters
// (εa, δ), but stops early when the ranking separates or the per-node
// radii beat εa. Only the per-walk modes run progressively; Mode is
// coerced to ModePruned unless ModeBasic or ModeRandomized was asked for
// explicitly.
// g may be a mutable *graph.Graph or an immutable *graph.Snapshot (the
// server runs progressive queries against lock-free snapshots).
//
// The query honors ctx and opt.Budget at every walk-trial checkpoint. A
// stopped run with at least two completed trials returns the current
// ranking (with its confidence radius in stats) alongside the error;
// earlier stops return no ranking.
func TopKProgressive(ctx context.Context, g graph.View, u graph.NodeID, k int, opt Options) (res []ScoredNode, stats ProgressiveStats, err error) {
	if k <= 0 {
		return nil, ProgressiveStats{}, fmt.Errorf("core: top-k requires k >= 1, got %d", k)
	}
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, ProgressiveStats{}, err
	}
	n := g.NumNodes()
	if u < 0 || int(u) >= n {
		return nil, ProgressiveStats{}, fmt.Errorf("core: query node %d out of range [0, %d)", u, n)
	}
	switch opt.Mode {
	case ModeBasic, ModeRandomized:
		// keep
	default:
		opt.Mode = ModePruned
	}
	plan := planFor(opt, n)

	m := budget.New(ctx, opt.Budget.Timeout, opt.Budget.MaxWalks, opt.Budget.MaxProbeWork)
	g, err = BindView(ctx, g)
	if err != nil {
		return nil, ProgressiveStats{}, fmt.Errorf("core: query %d: %w", u, err)
	}
	st := newProgressiveState(n)
	gen := walk.NewGenerator(g, plan.C, xrand.New(plan.Seed).Split(0))
	gen.SetMeter(m)
	rng := xrand.New(plan.Seed).Split(1)
	scratch := probe.NewScratch(n)
	scratch.SetMeter(m)
	var buf []graph.NodeID

	stats = ProgressiveStats{BudgetWalks: plan.NumWalks}
	cp := budget.NewCheckpoint(m, budget.DefaultInterval)
	target := progressiveStartWalks
	if target > plan.NumWalks {
		target = plan.NumWalks
	}
	for {
		for stats.Walks < target {
			if cp.Stop() {
				// Evaluate whatever the completed trials support, so the
				// caller gets a best-effort ranking with its radius next to
				// the cancellation error. Fewer than two trials cannot even
				// produce a variance estimate — return nothing.
				if stats.Walks < 2 {
					return nil, stats, queryError(u, m)
				}
				stats.Rounds++
				top, maxTopRadius, _, _ := st.evaluate(u, k, stats.Walks, stats.Rounds, opt.Delta, float64(n))
				stats.Radius = maxTopRadius
				return top, stats, queryError(u, m)
			}
			buf = gen.Generate(u, plan.MaxWalkNodes, buf)
			st.beginTrial()
			for i := 2; i <= len(buf); i++ {
				if m.Stopped() {
					// Mid-trial trip: the remaining prefixes would probe to
					// empty results anyway; stop now. The prefixes already
					// probed carry valid (final-level) scores, so the trial
					// still counts as a partial, underestimating one.
					break
				}
				prefix := buf[:i]
				if plan.Mode == ModeRandomized {
					for _, v := range probe.Randomized(g, prefix, plan.SqrtC, rng, scratch) {
						st.add(v, 1)
					}
				} else {
					res := probe.Deterministic(g, prefix, plan.SqrtC, plan.EpsP, scratch)
					for _, v := range res.Nodes {
						st.add(v, res.Scores[v])
					}
				}
			}
			st.endTrial()
			stats.Walks++
			m.ChargeWalks(1)
		}
		stats.Rounds++

		top, maxTopRadius, separated, maxRadius := st.evaluate(u, k, stats.Walks, stats.Rounds, opt.Delta, float64(n))
		stats.Radius = maxTopRadius
		switch {
		case separated:
			stats.Separated = true
			return top, stats, nil
		case 2*maxRadius <= opt.EpsA:
			return top, stats, nil
		case stats.Walks >= plan.NumWalks:
			// Static budget reached: Theorem 1's guarantee applies; the
			// reported per-node radius is usually far tighter.
			return top, stats, nil
		}
		target *= 2
		if target > plan.NumWalks {
			target = plan.NumWalks
		}
	}
}

// progressiveState accumulates per-node first and second moments of the
// per-trial estimators, touching only the nodes each trial actually
// scored.
type progressiveState struct {
	sum     []float64 // Σ_k s̃_k(v)
	sumSq   []float64 // Σ_k s̃_k(v)²
	trial   []float64 // current trial's partial sum per node
	touched []graph.NodeID
	mark    []bool
}

func newProgressiveState(n int) *progressiveState {
	return &progressiveState{
		sum:   make([]float64, n),
		sumSq: make([]float64, n),
		trial: make([]float64, n),
		mark:  make([]bool, n),
	}
}

func (st *progressiveState) beginTrial() { st.touched = st.touched[:0] }

func (st *progressiveState) add(v graph.NodeID, score float64) {
	if !st.mark[v] {
		st.mark[v] = true
		st.touched = append(st.touched, v)
	}
	st.trial[v] += score
}

func (st *progressiveState) endTrial() {
	for _, v := range st.touched {
		x := st.trial[v]
		st.sum[v] += x
		st.sumSq[v] += x * x
		st.trial[v] = 0
		st.mark[v] = false
	}
}

// evaluate computes per-node empirical-Bernstein radii at trial count t
// and round R, selects the top-k by estimate, and reports:
// the top-k with estimates, the max radius inside the top-k, whether the
// set separates from the rest, and the max radius over all nodes (for the
// Definition-2 stop).
func (st *progressiveState) evaluate(u graph.NodeID, k int, t, round int, delta, nn float64) ([]ScoredNode, float64, bool, float64) {
	if nn < 2 {
		nn = 2
	}
	// Maurer–Pontil with the budget split over nodes and rounds:
	// r_v = sqrt(2·V̂_v·L/t) + 7L/(3(t−1)),
	// L = ln(2·n·R·(R+1)/δ).
	r := float64(round)
	L := math.Log(2 * nn * r * (r + 1) / delta)
	tf := float64(t)
	slack := 7 * L / (3 * (tf - 1))

	n := len(st.sum)
	est := make([]float64, n)
	radius := func(v int) float64 {
		mean := st.sum[v] / tf
		variance := (st.sumSq[v] - st.sum[v]*mean) / (tf - 1)
		if variance < 0 {
			variance = 0
		}
		return math.Sqrt(2*variance*L/tf) + slack
	}
	for v := range est {
		est[v] = st.sum[v] / tf
	}
	if int(u) < n {
		est[u] = 1
	}
	top := SelectTopK(est, u, k)

	var maxTop, minLower float64
	minLower = math.Inf(1)
	inTop := make(map[graph.NodeID]bool, len(top))
	for _, s := range top {
		rv := radius(int(s.Node))
		if rv > maxTop {
			maxTop = rv
		}
		if lo := s.Score - rv; lo < minLower {
			minLower = lo
		}
		inTop[s.Node] = true
	}
	// Highest upper bound outside the top-k, and the global max radius.
	var maxUpper, maxRadius float64
	maxRadius = maxTop
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == u || inTop[graph.NodeID(v)] {
			continue
		}
		rv := radius(v)
		if rv > maxRadius {
			maxRadius = rv
		}
		if hi := est[v] + rv; hi > maxUpper {
			maxUpper = hi
		}
	}
	separated := len(top) > 0 && minLower >= maxUpper
	// Keep the output order contract of SelectTopK (already sorted).
	sort.SliceStable(top, func(i, j int) bool {
		if top[i].Score != top[j].Score {
			return top[i].Score > top[j].Score
		}
		return top[i].Node < top[j].Node
	})
	return top, maxTop, separated, maxRadius
}
