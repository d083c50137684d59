package core

import (
	"slices"

	"probesim/internal/graph"
)

// Ranked is a single-source answer kept sparse: the non-zero scores of
// the nodes other than the query node, strongest first. ProbeSim's
// probes only reach nodes that meet the walk tree, so on typical graphs
// an answer has tens to thousands of non-zero scores out of n, and a
// Ranked holds 16 bytes per non-zero score where the dense vector holds
// 8n. It carries the whole answer: TopK reads a prefix, Score looks up
// one node, and Dense rebuilds SingleSource's vector, each bit for bit.
//
// A Ranked is immutable once built, so caches share one among any number
// of readers.
type Ranked struct {
	N int          // nodes in the graph the answer was computed on
	U graph.NodeID // the query node; s̃(U, U) = 1
	// Top holds every node other than U with a non-zero score, by
	// descending score with ascending id breaking ties (SelectTopK's
	// order). Scores are non-negative and ids unique, so this is a total
	// order and Top is the same however it was sorted.
	Top []ScoredNode
}

// ranked builds the query's Ranked answer from its merged scratch: the
// touched entries other than u, sorted.
func (sc *queryScratch) ranked(u graph.NodeID) *Ranked {
	top := make([]ScoredNode, 0, len(sc.touched))
	for _, v := range sc.touched {
		if x := (ScoredNode{Node: v, Score: sc.acc[v]}); x.Score != 0 && v != u {
			top = append(top, x)
		}
	}
	slices.SortFunc(top, func(a, b ScoredNode) int {
		switch {
		case weaker(b, a):
			return -1
		case weaker(a, b):
			return 1
		}
		return 0
	})
	return &Ranked{N: sc.n, U: u, Top: top}
}

// TopK returns the k strongest nodes other than U in a fresh slice:
// Top's first k entries, followed, when k exceeds len(Top), by zero
// scorers in ascending id order (skipping U and Top's nodes) until k
// entries or every other node is listed. It equals SelectTopK over Dense
// bit for bit.
func (r *Ranked) TopK(k int) []ScoredNode {
	k = min(k, r.N-1)
	if k <= len(r.Top) {
		return slices.Clone(r.Top[:max(k, 0)])
	}
	out := make([]ScoredNode, len(r.Top), k)
	copy(out, r.Top)
	// Zero fill: walk ids upward, stepping over U and the non-zero
	// scorers, which a sorted copy of their ids lists in the same order.
	nz := make([]graph.NodeID, len(r.Top))
	for i, x := range r.Top {
		nz[i] = x.Node
	}
	slices.Sort(nz)
	for v := graph.NodeID(0); len(out) < k; v++ {
		if len(nz) > 0 && nz[0] == v {
			nz = nz[1:]
			continue
		}
		if v != r.U {
			out = append(out, ScoredNode{Node: v})
		}
	}
	return out
}

// Score returns s̃(U, v): 1 for U itself, v's score if it is in Top, and
// 0 otherwise.
func (r *Ranked) Score(v graph.NodeID) float64 {
	if v == r.U {
		return 1
	}
	for _, x := range r.Top {
		if x.Node == v {
			return x.Score
		}
	}
	return 0
}

// Dense rebuilds the answer as a fresh n-vector, the form SingleSource
// returns.
func (r *Ranked) Dense() []float64 {
	est := make([]float64, r.N)
	for _, x := range r.Top {
		est[x.Node] = x.Score
	}
	est[r.U] = 1
	return est
}
