// Package walk implements √c-walks (Definition 3 of the paper): reverse
// random walks that follow a uniformly chosen incoming edge at each step and
// terminate with probability 1 − √c per step. By Eq. 3, the SimRank
// similarity s(u, v) equals the probability that independent √c-walks from
// u and v meet (visit the same node at the same step), which is the
// foundation of ProbeSim, the Monte Carlo baseline, and TSF.
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

// BatchWalk is one walk stepped by a SegmentedView. Buf holds the
// walk's nodes so far (the start node first), State is the walk's
// SplitMix64 position after the last appended node, and Done reports that
// the walk ended (termination draw, dead end, length cap, or budget
// stop).
type BatchWalk struct {
	Buf   []graph.NodeID
	State uint64
	Done  bool
}

// SegmentedView is a graph view that steps walks itself instead of
// exposing per-node adjacency to the walk loop. The router's distributed
// view implements it: walks whose current shard block is already cached
// step locally, and the remainder are delegated to the shard engines
// owning their current nodes, in one RPC per owning worker group per
// exchange. Each walk draws only from its own State — exactly the
// SplitMix64 stream an in-process walk consumes — so results stay
// bit-identical across topologies however walks are grouped.
type SegmentedView interface {
	// WalkSegmentBatch advances every walk with Done == false by at least
	// one segment, appending to its Buf (never past maxNodes nodes) and
	// updating its State. A walk left !Done crossed into a shard the view
	// chose not to step this round; the caller loops until all walks are
	// done. An error latches a transport/budget failure: the view marks
	// affected walks done and the caller stops looping.
	WalkSegmentBatch(walks []BatchWalk, maxNodes int, sqrtC float64) error
}

// Generator produces √c-walks over a fixed graph view.
type Generator struct {
	adj   graph.Adj
	seg   SegmentedView // non-nil: delegate stepping to the view
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
// A SegmentedView steps walks itself, so its adjacency is deliberately
// NOT resolved here: resolving a distributed view materializes every
// uncached shard block, which the walk phase must not force.
func NewGenerator(g graph.View, c float64, rng *xrand.RNG) *Generator {
	if c <= 0 || c >= 1 {
		panic("walk: decay factor must be in (0, 1)")
	}
	gen := &Generator{sqrtC: math.Sqrt(c), rng: rng}
	if sv, ok := g.(SegmentedView); ok {
		gen.seg = sv
	} else {
		gen.adj = graph.ResolveAdj(g)
	}
	return gen
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
	// Stage timing: a traced query attributes the whole walk (including
	// any shard RPC round trips of a segmented view) to the walk stage;
	// untraced queries get a zero clk and StageEnd is a no-op.
	clk := gen.meter.StageStart()
	if gen.seg != nil {
		// Segmented view: the view steps the walk (shard-locally or over
		// RPC) as a batch of one, round-tripping the RNG state so the
		// stream is the one an in-process walk would consume.
		w := [1]BatchWalk{{Buf: buf, State: gen.rng.State()}}
		gen.stepSegmented(w[:], maxNodes)
		gen.rng.SetState(w[0].State)
		gen.meter.StageEnd(qtrace.StageWalk, clk)
		return w[0].Buf
	}
	buf, _ = Segment(&gen.adj, u, maxNodes-1, gen.sqrtC, gen.rng, nil, nil, buf)
	gen.meter.StageEnd(qtrace.StageWalk, clk)
	return buf
}

// GenerateMany produces one √c-walk from u per entry of states, where
// states[i] is walk i's initial SplitMix64 state. The walks slice is
// reused (its node buffers are recycled) and returned resized to
// len(states). Each walk draws exclusively from its own stream, so the
// result is bit-identical to len(states) sequential Generate calls with
// those streams — but over a SegmentedView all walks advance per
// exchange, collapsing per-walk RPC round trips into per-group ones.
func (gen *Generator) GenerateMany(u graph.NodeID, states []uint64, maxNodes int, walks []BatchWalk) []BatchWalk {
	if maxNodes <= 0 || maxNodes > HardCap {
		maxNodes = HardCap
	}
	if cap(walks) < len(states) {
		walks = append(walks[:cap(walks)], make([]BatchWalk, len(states)-cap(walks))...)
	}
	walks = walks[:len(states)]
	for i, st := range states {
		walks[i].Buf = append(walks[i].Buf[:0], u)
		walks[i].State = st
		walks[i].Done = false
	}
	if gen.meter.Stopped() {
		for i := range walks {
			walks[i].Done = true
		}
		return walks
	}
	clk := gen.meter.StageStart()
	if gen.seg != nil {
		gen.stepSegmented(walks, maxNodes)
	} else {
		var rng xrand.RNG
		for i := range walks {
			w := &walks[i]
			rng.SetState(w.State)
			w.Buf, _ = Segment(&gen.adj, u, maxNodes-1, gen.sqrtC, &rng, nil, nil, w.Buf)
			w.State = rng.State()
			w.Done = true
		}
	}
	gen.meter.StageEnd(qtrace.StageWalk, clk)
	return walks
}

// stepSegmented has the segmented view advance walks, one exchange at a
// time, until every walk is done or holds maxNodes nodes.
func (gen *Generator) stepSegmented(walks []BatchWalk, maxNodes int) {
	for {
		live := 0
		for i := range walks {
			w := &walks[i]
			if len(w.Buf) >= maxNodes {
				w.Done = true
			}
			if !w.Done {
				live++
			}
		}
		if live == 0 {
			return
		}
		if err := gen.seg.WalkSegmentBatch(walks, maxNodes, gen.sqrtC); err != nil {
			// The view latched the failure (and tripped the meter);
			// surviving prefixes stand as the walks' partial results.
			for i := range walks {
				walks[i].Done = true
			}
			return
		}
	}
}

// Segment advances a √c-walk from cur, appending at most room further
// nodes to buf. It is the single step loop behind every walk in this
// repository — Generate runs it with no ownership predicate, and the shard
// RPC worker runs it with owns limiting the segment to the shards it
// serves — so a walk stitched from segments consumes exactly the same RNG
// stream, and visits exactly the same nodes, as an uninterrupted one.
//
// The walk ends (ended = true) on the termination draw, at a node with no
// in-neighbors, when room is exhausted, or when stop reports the owning
// query's budget expired; ended = false means the walk stepped to a node
// for which owns returned false, and the caller must continue it there.
// stop, when non-nil, is polled once per step — walk segments are at most
// HardCap steps, so per-step polling through a budget.Checkpoint is what
// lets a propagated deadline stop a remote walk loop mid-segment.
func Segment(adj *graph.Adj, cur graph.NodeID, room int, sqrtC float64, rng *xrand.RNG, owns func(graph.NodeID) bool, stop func() bool, buf []graph.NodeID) (out []graph.NodeID, ended bool) {
	for ; room > 0; room-- {
		if owns != nil && !owns(cur) {
			return buf, false
		}
		if stop != nil && stop() {
			return buf, true
		}
		if rng.Float64() >= sqrtC {
			return buf, true // terminated with probability 1 − √c
		}
		in := adj.In(cur)
		if len(in) == 0 {
			return buf, true
		}
		cur = in[rng.Intn(len(in))]
		buf = append(buf, cur)
	}
	return buf, true
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
