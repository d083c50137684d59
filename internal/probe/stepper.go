package probe

import (
	"probesim/internal/graph"
)

// Stepper runs the deterministic probe (Algorithm 2) one level at a time so
// a caller can inspect the frontier between levels. This is how the §4.4
// hybrid decides mid-probe whether to abandon the deterministic expansion
// and finish with randomized replicas.
type Stepper struct {
	adj   *graph.Adj
	path  []graph.NodeID
	sqrtC float64
	epsP  float64
	s     *Scratch
	j     int // next level to produce (H_j)
	cur   []graph.NodeID
}

// NewStepper prepares a stepped probe of path over g (any graph.View). The
// Scratch is owned by the stepper until the probe finishes; path must have
// length >= 2.
func NewStepper(g graph.View, path []graph.NodeID, sqrtC, epsP float64, s *Scratch) *Stepper {
	s.forDeterministic()
	st := &Stepper{adj: s.adjFor(g), path: path, sqrtC: sqrtC, epsP: epsP, s: s, j: 0}
	st.cur = append(s.curList[:0], path[len(path)-1])
	s.curScore[path[len(path)-1]] = 1
	return st
}

// Level returns the index j of the current frontier H_j.
func (st *Stepper) Level() int { return st.j }

// Done reports whether the probe has produced its final level H_{i-1} (or
// died out early with an empty frontier).
func (st *Stepper) Done() bool {
	return st.j >= len(st.path)-1 || len(st.cur) == 0
}

// Frontier returns the current level's nodes and the dense score array.
// Both alias Scratch storage and are invalidated by Step.
func (st *Stepper) Frontier() ([]graph.NodeID, []float64) {
	return st.cur, st.s.curScore
}

// FrontierOutDegreeSum returns the total out-degree of the current
// frontier, the quantity the §4.4 hybrid compares against its budget.
func (st *Stepper) FrontierOutDegreeSum() int {
	return outDegreeSum(st.adj, st.cur)
}

// Step expands one level and reports whether the probe can continue. After
// the final Step the frontier holds the probe result. Each level charges
// its edge traversals to the scratch's budget meter as it expands, so a
// deadline stays observable inside a long stepped probe.
func (st *Stepper) Step() bool {
	if st.Done() {
		return false
	}
	i := len(st.path)
	excluded := st.path[i-st.j-2]
	st.cur = st.s.deterministicLevel(st.adj, st.cur, excluded, st.sqrtC, pruneThreshold(st.epsP, st.sqrtC, i, st.j))
	st.j++
	return !st.Done()
}
