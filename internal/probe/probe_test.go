package probe

import (
	"math"
	"testing"

	"probesim/internal/graph"
	"probesim/internal/walk"
	"probesim/internal/xrand"
)

// scoresOf converts a probe Result into a map for comparison.
func scoresOf(r Result) map[graph.NodeID]float64 {
	out := make(map[graph.NodeID]float64, len(r.Nodes))
	for _, v := range r.Nodes {
		out[v] = r.Scores[v]
	}
	return out
}

// §3.2 running example, toy graph, √c' = 0.5. The paper's S2, S3, S4 score
// sets for the √c-walk W(a) = (a, b, a, b), as exact fractions.
func TestDeterministicPaperExample(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	a, b := graph.ToyA, graph.ToyB

	cases := []struct {
		name string
		path []graph.NodeID
		want map[graph.NodeID]float64
	}{
		{
			name: "S2 = probe(a,b)",
			path: []graph.NodeID{a, b},
			want: map[graph.NodeID]float64{
				graph.ToyC: 1.0 / 6, graph.ToyD: 0.5, graph.ToyE: 0.25,
			},
		},
		{
			name: "S3 = probe(a,b,a)",
			path: []graph.NodeID{a, b, a},
			want: map[graph.NodeID]float64{
				graph.ToyF: 1.0 / 48, graph.ToyG: 1.0 / 36, graph.ToyH: 1.0 / 36,
			},
		},
		{
			name: "S4 = probe(a,b,a,b)",
			path: []graph.NodeID{a, b, a, b},
			want: map[graph.NodeID]float64{
				graph.ToyB: 1.0 / 96, graph.ToyC: 14.0 / 432,
				graph.ToyE: 11.0 / 288, graph.ToyF: 11.0 / 576,
			},
		},
	}
	for _, tc := range cases {
		got := scoresOf(Deterministic(g, tc.path, 0.5, 0, s))
		if len(got) != len(tc.want) {
			t.Errorf("%s: got nodes %v, want %v", tc.name, got, tc.want)
			continue
		}
		for v, want := range tc.want {
			if math.Abs(got[v]-want) > 1e-12 {
				t.Errorf("%s: score(%s) = %.6f, want %.6f",
					tc.name, graph.ToyNames[v], got[v], want)
			}
		}
	}
}

// The intermediate level-2 scores of the W(a,4) probe quoted in §3.2:
// Score(a,2)=1/24, Score(f,2)=11/96, Score(g,2)=Score(h,2)=11/72.
func TestDeterministicIntermediateLevels(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	s.forDeterministic() // the levels below run without Deterministic's set-up
	path := []graph.NodeID{graph.ToyA, graph.ToyB, graph.ToyA, graph.ToyB}
	adj := graph.ResolveAdj(g)
	cur := append(s.curList[:0], path[3])
	s.curScore[path[3]] = 1
	cur = s.deterministicLevel(&adj, cur, path[2], 0.5, 0) // H1
	cur = s.deterministicLevel(&adj, cur, path[1], 0.5, 0) // H2
	got := map[graph.NodeID]float64{}
	for _, v := range cur {
		got[v] = s.curScore[v]
	}
	want := map[graph.NodeID]float64{
		graph.ToyA: 1.0 / 24, graph.ToyF: 11.0 / 96,
		graph.ToyG: 11.0 / 72, graph.ToyH: 11.0 / 72,
	}
	if len(got) != len(want) {
		t.Fatalf("H2 = %v, want %v", got, want)
	}
	for v, w := range want {
		if math.Abs(got[v]-w) > 1e-12 {
			t.Errorf("Score(%s,2) = %.6f, want %.6f", graph.ToyNames[v], got[v], w)
		}
	}
}

// §4.1 running example for pruning rule 2: with εp = 0.05 the probe of
// (a,b,a,b) must not descend below c (Score(c,1)·(√c)² = 0.042 <= εp),
// removing c's contribution from every deeper level.
func TestPruningRule2Example(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	path := []graph.NodeID{graph.ToyA, graph.ToyB, graph.ToyA, graph.ToyB}
	got := scoresOf(Deterministic(g, path, 0.5, 0.05, s))

	// With c pruned at level 1, H2 = {f: (1/2+1/4)/2/4, g: (3/4)/2/3, h: same}
	// (a receives score only from c, so a disappears as well), and H3 is
	// built from f, g, h alone. f also fails the level-2 prune
	// (0.09375·0.5 <= 0.05), g and h survive (0.125 > 0.05).
	// H3 from g: e (1/2·0.125/2), c (1/2·0.125/3); from h: f (1/2·0.125/4).
	want := map[graph.NodeID]float64{
		graph.ToyE: 0.125 * 0.5 / 2,
		graph.ToyC: 0.125 * 0.5 / 3,
		graph.ToyF: 0.125 * 0.5 / 4,
	}
	if len(got) != len(want) {
		t.Fatalf("pruned probe = %v, want %v", got, want)
	}
	for v, w := range want {
		if math.Abs(got[v]-w) > 1e-12 {
			t.Errorf("score(%s) = %.6f, want %.6f", graph.ToyNames[v], got[v], w)
		}
	}
}

// Pruning is one-sided: pruned scores never exceed exact scores, and the
// deficit is bounded by εp (Lemma 7).
func TestPruningOneSided(t *testing.T) {
	rng := xrand.New(42)
	g := randomGraph(rng, 60, 300)
	s := NewScratch(g.NumNodes())
	gen := walk.NewGenerator(g, 0.6, rng)
	sqrtC := math.Sqrt(0.6)
	const epsP = 0.02
	for trial := 0; trial < 200; trial++ {
		u := rng.Int31n(60)
		w := gen.Generate(u, 8, nil)
		if len(w) < 2 {
			continue
		}
		exact := map[graph.NodeID]float64{}
		for v, sc := range scoresOf(Deterministic(g, w, sqrtC, 0, s)) {
			exact[v] = sc
		}
		pruned := scoresOf(Deterministic(g, w, sqrtC, epsP, s))
		for v, sc := range pruned {
			if sc > exact[v]+1e-12 {
				t.Fatalf("pruned score %v > exact %v at node %d", sc, exact[v], v)
			}
		}
		for v, ex := range exact {
			if ex-pruned[v] > epsP+1e-12 {
				t.Fatalf("pruning deficit %v > εp at node %d", ex-pruned[v], v)
			}
		}
	}
}

// Each probe score is a probability for the walk of a distinct node v, so
// per node it lies in [0, (√c)^(i-1)] (each of the i-1 levels multiplies by
// at most √c), and the query node never receives a score. Note the sum
// over v is NOT bounded by 1 — only the per-v sum across levels is.
func TestScoreDistributionProperties(t *testing.T) {
	rng := xrand.New(7)
	sqrtC := math.Sqrt(0.8)
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 40, 200)
		s := NewScratch(g.NumNodes())
		gen := walk.NewGenerator(g, 0.8, rng)
		u := rng.Int31n(40)
		w := gen.Generate(u, 10, nil)
		if len(w) < 2 {
			continue
		}
		res := Deterministic(g, w, sqrtC, 0, s)
		bound := math.Pow(sqrtC, float64(len(w)-1))
		for _, v := range res.Nodes {
			sc := res.Scores[v]
			if v == u {
				t.Fatalf("query node %d received score %v", u, sc)
			}
			if sc < 0 || sc > bound+1e-12 {
				t.Fatalf("score %v outside [0, (√c)^%d = %v]", sc, len(w)-1, bound)
			}
		}
	}
}

// Cross-validation: the deterministic probe score of v equals the
// first-meeting probability measured by direct √c-walk simulation from v.
func TestDeterministicMatchesSimulation(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	path := []graph.NodeID{graph.ToyA, graph.ToyB, graph.ToyA, graph.ToyB}
	res := Deterministic(g, path, 0.5, 0, s)
	want := map[graph.NodeID]float64{}
	for _, v := range res.Nodes {
		want[v] = res.Scores[v]
	}

	rng := xrand.New(99)
	gen := walk.NewGenerator(g, 0.25, rng) // c = 0.25 so √c = 0.5
	const trials = 400000
	for v, exact := range want {
		hits := 0
		for i := 0; i < trials; i++ {
			w := gen.Generate(v, len(path), nil)
			if len(w) < len(path) {
				continue
			}
			// First-meeting at the final step: match there, differ earlier.
			if w[len(path)-1] != path[len(path)-1] {
				continue
			}
			met := false
			for j := 1; j < len(path)-1; j++ {
				if w[j] == path[j] {
					met = true
					break
				}
			}
			if !met {
				hits++
			}
		}
		got := float64(hits) / trials
		sigma := math.Sqrt(exact * (1 - exact) / trials)
		if math.Abs(got-exact) > 5*sigma+1e-4 {
			t.Errorf("simulated P(%s) = %.5f, probe says %.5f",
				graph.ToyNames[v], got, exact)
		}
	}
}

// Lemma 6: the randomized probe selects each node with probability equal
// to its deterministic score.
func TestRandomizedUnbiased(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	path := []graph.NodeID{graph.ToyA, graph.ToyB, graph.ToyA, graph.ToyB}
	det := Deterministic(g, path, 0.5, 0, s)
	want := map[graph.NodeID]float64{}
	for _, v := range det.Nodes {
		want[v] = det.Scores[v]
	}

	rng := xrand.New(123)
	const trials = 300000
	counts := map[graph.NodeID]int{}
	for i := 0; i < trials; i++ {
		for _, v := range Randomized(g, path, 0.5, rng, s) {
			counts[v]++
		}
	}
	for v := range counts {
		if _, ok := want[v]; !ok {
			t.Fatalf("randomized probe selected %s which has zero score", graph.ToyNames[v])
		}
	}
	for v, exact := range want {
		got := float64(counts[v]) / trials
		sigma := math.Sqrt(exact * (1 - exact) / trials)
		if math.Abs(got-exact) > 5*sigma+1e-4 {
			t.Errorf("randomized frequency(%s) = %.5f, want %.5f",
				graph.ToyNames[v], got, exact)
		}
	}
}

// Randomized probes on random graphs stay within the support of the
// deterministic probe.
func TestRandomizedSupport(t *testing.T) {
	rng := xrand.New(31)
	g := randomGraph(rng, 50, 250)
	s := NewScratch(g.NumNodes())
	s2 := NewScratch(g.NumNodes())
	gen := walk.NewGenerator(g, 0.6, rng)
	sqrtC := math.Sqrt(0.6)
	for trial := 0; trial < 300; trial++ {
		u := rng.Int31n(50)
		w := gen.Generate(u, 8, nil)
		if len(w) < 2 {
			continue
		}
		det := scoresOf(Deterministic(g, w, sqrtC, 0, s))
		for _, v := range Randomized(g, w, sqrtC, rng, s2) {
			if det[v] == 0 {
				t.Fatalf("randomized selected %d outside deterministic support", v)
			}
		}
	}
}

// ContinueRandomized with an exactly-sampled deterministic level must match
// the full deterministic scores in expectation (the §4.4 hybrid switch is
// unbiased).
func TestContinueRandomizedUnbiased(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	path := []graph.NodeID{graph.ToyA, graph.ToyB, graph.ToyA, graph.ToyB}
	det := Deterministic(g, path, 0.5, 0, s)
	want := map[graph.NodeID]float64{}
	for _, v := range det.Nodes {
		want[v] = det.Scores[v]
	}

	// Recompute H1 deterministically, then hand over at j = 1.
	s1 := NewScratch(g.NumNodes())
	s1.forDeterministic() // the level below runs without Deterministic's set-up
	adj := graph.ResolveAdj(g)
	cur := append(s1.curList[:0], path[3])
	s1.curScore[path[3]] = 1
	cur = s1.deterministicLevel(&adj, cur, path[2], 0.5, 0)
	h1 := append([]graph.NodeID(nil), cur...)
	h1Scores := make([]float64, len(h1))
	for i, v := range h1 {
		h1Scores[i] = s1.curScore[v]
	}

	rng := xrand.New(777)
	s2 := NewScratch(g.NumNodes())
	const trials = 300000
	counts := map[graph.NodeID]int{}
	members := make([]graph.NodeID, 0, len(h1))
	for i := 0; i < trials; i++ {
		members = members[:0]
		for idx, v := range h1 {
			if rng.Float64() < h1Scores[idx] {
				members = append(members, v)
			}
		}
		for _, v := range ContinueRandomized(g, path, 1, members, 0.5, rng, s2) {
			counts[v]++
		}
	}
	for v, exact := range want {
		got := float64(counts[v]) / trials
		sigma := math.Sqrt(exact * (1 - exact) / trials)
		if math.Abs(got-exact) > 5*sigma+1e-4 {
			t.Errorf("continued frequency(%s) = %.5f, want %.5f",
				graph.ToyNames[v], got, exact)
		}
	}
}

func TestShortPaths(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	if r := Deterministic(g, []graph.NodeID{graph.ToyA}, 0.5, 0, s); len(r.Nodes) != 0 {
		t.Fatal("length-1 path must probe nothing")
	}
	if r := Deterministic(g, nil, 0.5, 0, s); len(r.Nodes) != 0 {
		t.Fatal("empty path must probe nothing")
	}
	if got := Randomized(g, []graph.NodeID{graph.ToyA}, 0.5, xrand.New(1), s); len(got) != 0 {
		t.Fatal("length-1 randomized path must probe nothing")
	}
}

func TestOutDegreeSum(t *testing.T) {
	g := graph.Toy()
	// out(b) = {a,c,d,e}, out(d) = {f,g,h}.
	if got := OutDegreeSum(g, []graph.NodeID{graph.ToyB, graph.ToyD}); got != 4+3 {
		t.Fatalf("OutDegreeSum = %d, want 7", got)
	}
}

// Scratch reuse across many probes must not leak state between calls.
func TestScratchReuse(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	path := []graph.NodeID{graph.ToyA, graph.ToyB}
	first := map[graph.NodeID]float64{}
	for v, sc := range scoresOf(Deterministic(g, path, 0.5, 0, s)) {
		first[v] = sc
	}
	for i := 0; i < 100; i++ {
		// Interleave other probes to dirty the buffers.
		Deterministic(g, []graph.NodeID{graph.ToyA, graph.ToyB, graph.ToyA, graph.ToyB}, 0.5, 0, s)
		Randomized(g, []graph.NodeID{graph.ToyA, graph.ToyC}, 0.5, xrand.New(uint64(i)), s)
		again := scoresOf(Deterministic(g, path, 0.5, 0, s))
		if len(again) != len(first) {
			t.Fatalf("iteration %d: result size changed", i)
		}
		for v, sc := range first {
			if again[v] != sc {
				t.Fatalf("iteration %d: score(%d) drifted %v -> %v", i, v, sc, again[v])
			}
		}
	}
}

// Epoch wraparound safety: force the epoch counters around the uint32
// boundary and check results remain correct.
func TestEpochWraparound(t *testing.T) {
	g := graph.Toy()
	s := NewScratch(g.NumNodes())
	path := []graph.NodeID{graph.ToyA, graph.ToyB}
	want := scoresOf(Deterministic(g, path, 0.5, 0, s))
	s.epoch = math.MaxUint32 - 1
	s.memberEp = math.MaxUint32 - 1
	for i := 0; i < 5; i++ {
		got := scoresOf(Deterministic(g, path, 0.5, 0, s))
		Randomized(g, path, 0.5, xrand.New(9), s)
		for v, sc := range want {
			if got[v] != sc {
				t.Fatalf("wraparound changed score(%d): %v -> %v", v, sc, got[v])
			}
		}
	}
}

func randomGraph(rng *xrand.RNG, n, m int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u != v {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}
