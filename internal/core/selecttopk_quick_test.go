package core

import (
	"sort"
	"testing"
	"testing/quick"

	"probesim/internal/graph"
	"probesim/internal/xrand"
)

// referenceTopK is the obviously-correct O(n log n) implementation that
// SelectTopK's bounded heap must agree with exactly.
func referenceTopK(est []float64, u graph.NodeID, k int) []ScoredNode {
	var all []ScoredNode
	for v, s := range est {
		if graph.NodeID(v) != u {
			all = append(all, ScoredNode{Node: graph.NodeID(v), Score: s})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Property: the heap-based selection equals the sort-based reference for
// random score vectors, including heavy ties.
func TestSelectTopKMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(200)
		est := make([]float64, n)
		for i := range est {
			// Quantize to force ties.
			est[i] = float64(rng.Intn(8)) / 8
		}
		u := graph.NodeID(rng.Intn(n))
		k := 1 + rng.Intn(n+3) // sometimes larger than n-1
		got := SelectTopK(est, u, k)
		want := referenceTopK(est, u, k)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every returned score actually appears in the estimate vector
// at the returned node, and no excluded node can beat the weakest
// returned one.
func TestSelectTopKSound(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(100)
		est := make([]float64, n)
		for i := range est {
			est[i] = rng.Float64()
		}
		u := graph.NodeID(rng.Intn(n))
		k := 1 + rng.Intn(n-1)
		got := SelectTopK(est, u, k)
		inAnswer := map[graph.NodeID]bool{}
		for _, r := range got {
			if est[r.Node] != r.Score || r.Node == u {
				return false
			}
			inAnswer[r.Node] = true
		}
		if len(got) == 0 {
			return true
		}
		weakest := got[len(got)-1].Score
		for v := 0; v < n; v++ {
			if graph.NodeID(v) == u || inAnswer[graph.NodeID(v)] {
				continue
			}
			if est[v] > weakest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranking an accumulator's touched list into a Ranked answer
// and reading its top k equals the sort-based reference over its dense
// vector, on mostly-zero vectors with forced ties, a query node that is
// sometimes touched, and k sometimes past the non-zero count (the zero
// fill) or past n-1.
func TestSparseTopKMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(200)
		sc := newQueryScratch(n)
		for i := rng.Intn(n/4 + 2); i > 0; i-- {
			// Quantized, sometimes repeated adds: ties and accumulation.
			sc.add(graph.NodeID(rng.Intn(n)), float64(1+rng.Intn(4))/8)
		}
		u := graph.NodeID(rng.Intn(n))
		if rng.Intn(2) == 0 {
			sc.set(u, 1)
		}
		k := 1 + rng.Intn(n+3) // sometimes larger than n-1
		got := sc.ranked(u).TopK(k)
		want := referenceTopK(sc.acc, u, k)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
