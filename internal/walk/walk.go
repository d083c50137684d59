// Package walk implements √c-walks (Definition 3 of the paper): reverse
// random walks that follow a uniformly chosen incoming edge at each step and
// terminate with probability 1 − √c per step. By Eq. 3, the SimRank
// similarity s(u, v) equals the probability that independent √c-walks from
// u and v meet (visit the same node at the same step), which is the
// foundation of ProbeSim, the Monte Carlo baseline, and TSF.
//
// Step is the one step rule. Generator and Segment build whole walks from
// it for the per-walk kernels and baselines; the batched ProbeSim kernel
// calls it directly, inserting each step into its walk tree as it is
// drawn, so no batched query materializes a walk.
package walk

import (
	"math"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
	"probesim/internal/xrand"
)

// HardCap bounds walk length when no truncation is requested. A √c-walk
// of 96 steps survives with probability (√c)^96 < 5·10⁻¹¹ even at c = 0.8,
// so the cap is statistically invisible while keeping buffers bounded.
const HardCap = 96

// Generator produces √c-walks over a fixed graph view.
type Generator struct {
	adj   graph.Adj
	sqrtC float64
	rng   *xrand.RNG
	meter *budget.Meter
}

// NewGenerator returns a walk generator with decay factor c (the SimRank
// decay; the per-step survival probability is √c) drawing randomness from
// rng. It accepts either a mutable *graph.Graph or an immutable
// *graph.Snapshot; the adjacency storage is resolved once so walk steps
// pay no interface dispatch. If g is a *graph.Graph it must not be
// mutated while the generator is in use.
//
// Resolving happens before the first step whatever the view: a routed
// view fetches its shard blocks here, in bulk, so every topology runs
// the same step loop over the same adjacency.
func NewGenerator(g graph.View, c float64, rng *xrand.RNG) *Generator {
	if c <= 0 || c >= 1 {
		panic("walk: decay factor must be in (0, 1)")
	}
	return &Generator{adj: graph.ResolveAdj(g), sqrtC: math.Sqrt(c), rng: rng}
}

// SqrtC returns the per-step survival probability √c.
func (gen *Generator) SqrtC() float64 { return gen.sqrtC }

// SetMeter attaches the owning query's budget meter: once it trips,
// Generate returns the trivial one-node walk immediately instead of
// stepping, so a canceled query stops producing work at the next walk
// boundary. A nil meter (the default) means unbounded.
func (gen *Generator) SetMeter(m *budget.Meter) { gen.meter = m }

// Generate appends a √c-walk starting at u to buf and returns it. The walk
// includes u as its first node. maxNodes caps the number of nodes in the
// walk (pruning rule 1); pass 0 for the statistical HardCap. A walk also
// ends when it reaches a node with no in-neighbors, since a reverse step
// is impossible there (an empty in-neighbor sum in Eq. 1).
func (gen *Generator) Generate(u graph.NodeID, maxNodes int, buf []graph.NodeID) []graph.NodeID {
	if maxNodes <= 0 || maxNodes > HardCap {
		maxNodes = HardCap
	}
	buf = append(buf[:0], u)
	if gen.meter.Stopped() {
		return buf
	}
	// Stage timing: a traced query attributes the walk to the walk stage;
	// untraced queries get a zero clk and StageEnd is a no-op.
	clk := gen.meter.StageStart()
	buf = Segment(&gen.adj, u, maxNodes-1, gen.sqrtC, gen.rng, buf)
	gen.meter.StageEnd(qtrace.StageWalk, clk)
	return buf
}

// Step draws one step of a √c-walk standing at cur: the termination
// draw, then a uniform in-neighbour. ok is false when the walk ends there,
// on the termination draw (probability 1 − √c) or at a node with no
// in-neighbours. It is the step rule of every walk in this repository:
// Segment loops over it, and the batched kernel's tree builder steps
// through it straight into its walk tree, so both consume the same draws.
func Step(adj *graph.Adj, cur graph.NodeID, sqrtC float64, rng *xrand.RNG) (next graph.NodeID, ok bool) {
	if rng.Float64() >= sqrtC {
		return 0, false
	}
	in := adj.In(cur)
	if len(in) == 0 {
		return 0, false
	}
	return in[rng.Intn(len(in))], true
}

// Segment advances a √c-walk from cur, appending at most room further
// nodes to buf. The walk ends where Step ends it or when room is
// exhausted.
func Segment(adj *graph.Adj, cur graph.NodeID, room int, sqrtC float64, rng *xrand.RNG, buf []graph.NodeID) []graph.NodeID {
	for ; room > 0; room-- {
		next, ok := Step(adj, cur, sqrtC, rng)
		if !ok {
			return buf
		}
		cur = next
		buf = append(buf, cur)
	}
	return buf
}

// TruncateLen returns the maximum number of walk nodes under pruning rule 1
// with termination parameter epsT: ℓt = ⌊log(εt)/log(√c)⌋, matching the
// paper's running example (εt = 0.05, √c = 0.5 → walks keep 4 nodes).
// The result is at least 2 so that a walk can contribute at all.
func TruncateLen(epsT, sqrtC float64) int {
	if epsT <= 0 || epsT >= 1 {
		return HardCap
	}
	l := int(math.Floor(math.Log(epsT) / math.Log(sqrtC)))
	if l < 2 {
		l = 2
	}
	if l > HardCap {
		l = HardCap
	}
	return l
}

// MeetStep returns the first step index i (1-based over walk positions,
// counting the start nodes as position 1) at which the two walks visit the
// same node, or 0 when they never meet. Used by the Monte Carlo estimator:
// two √c-walks contribute to s(u, v) exactly when MeetStep > 0.
func MeetStep(a, b []graph.NodeID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			return i + 1
		}
	}
	return 0
}

// ExpectedLen returns E[ℓ], the expected node count of a √c-walk on a graph
// with no dead ends: 1/(1 − √c).
func ExpectedLen(c float64) float64 { return 1 / (1 - math.Sqrt(c)) }

// ExpectedLenSq returns the bound on E[ℓ²] used in §3.3's complexity
// analysis: (1 + √c)/(1 − √c)².
func ExpectedLenSq(c float64) float64 {
	s := math.Sqrt(c)
	return (1 + s) / ((1 - s) * (1 - s))
}
