// Package probe implements the PROBE primitives of ProbeSim: given a
// partial √c-walk W(u, i) = (u₁, …, u_i), compute for every node v its
// first-meeting probability P(v, W(u, i)) — the probability that a √c-walk
// from v visits u_i at step i without having met the partial walk at any
// earlier step (Definition 4).
//
// Two variants are provided, mirroring §3.2 and §4.3 of the paper:
//
//   - Deterministic (Algorithm 2): an exact level-by-level graph traversal
//     in O(m·i) worst-case time, supporting the score-pruning rule 2 and
//     batched execution (one probe serves many identical walk prefixes).
//   - Randomized (Algorithm 4): an O(n·i) expected-time Bernoulli sampler
//     whose per-node selection probability equals the deterministic score
//     (Lemma 6), trading exactness for a better worst-case bound.
//
// ContinueRandomized supports the §4.4 hybrid: a probe that starts
// deterministically can hand its current level over to the randomized
// sampler mid-flight.
package probe

import (
	"math"
	"reflect"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/xrand"
)

// Scratch holds the reusable dense frontier buffers for probes on a graph
// with a fixed number of nodes. A Scratch may be reused across any number
// of probes but must not be shared between goroutines.
type Scratch struct {
	n int

	// Work counts edge traversals across all probes on this Scratch;
	// callers may read (and reset) it to enforce work budgets.
	Work int64

	// Current and next level frontiers. curScore is valid for the nodes
	// listed in the current level; newScore accumulates the next level
	// under mark stamps.
	curList  []graph.NodeID
	nextList []graph.NodeID
	curScore []float64
	newScore []float64
	mark     []uint32
	epoch    uint32

	// Membership stamps for randomized probes.
	member   []uint32
	memberEp uint32

	// reads, when set, records every node whose adjacency the probes on
	// this Scratch read beyond their path's own nodes (SetReadLog).
	reads *ReadLog

	// meter, when set, is the owning query's budget meter: every level
	// charges its edge traversals and the expansion loops stop early once
	// the meter trips, so even a single huge probe (O(m·i) worst case on a
	// dense level) honors a deadline within one level rather than one
	// probe. A nil meter costs one branch per level.
	meter *budget.Meter

	// Cached adjacency resolution. A probe runs once per walk prefix —
	// thousands of times per query on the same view — so re-resolving the
	// concrete storage every call costs real time (for provider-backed
	// views it is an interface assertion plus a ~25-word struct copy per
	// prefix). The cache is keyed by view identity.
	adjView graph.View
	adj     graph.Adj
}

// adjFor returns the devirtualized adjacency for g, resolving it only
// when the view changed since the last probe on this Scratch. Mutable
// *graph.Graph views resolve to storage that a mutation can invalidate,
// but the probe contract already forbids mutating during queries, and any
// mutation epoch change arrives via a new snapshot (a different view
// identity), which misses the cache.
//
// Only views of comparable dynamic types are cached (adjView stays nil
// otherwise, and comparing a comparable cached view against a foreign
// uncomparable one is defined — distinct dynamic types are simply
// unequal), so an uncomparable View implementation falls back to
// per-call resolution instead of panicking.
func (s *Scratch) adjFor(g graph.View) *graph.Adj {
	if s.adjView != nil && s.adjView == g {
		return &s.adj
	}
	s.adj = graph.ResolveAdj(g)
	s.adjView = nil
	if reflect.TypeOf(g).Comparable() {
		s.adjView = g
	}
	return &s.adj
}

// SetMeter attaches (or, with nil, detaches) the query budget meter the
// probe loops checkpoint against. Owners that pool a Scratch across
// queries must detach before parking it, so a recycled scratch can never
// observe a previous query's expiry.
func (s *Scratch) SetMeter(m *budget.Meter) { s.meter = m }

// SetReadLog attaches (or, with nil, detaches) the log the probes record
// their reads into. Deterministic levels log every node they add to the
// next frontier (whose in-degree they read, and whose out-list the level
// after reads); randomized levels log every candidate whose in-list they
// sample, and a full candidate scan marks the log unbounded. Together
// with the path's own nodes, which the caller logs, that covers every
// node whose adjacency a probe reads. Several Scratches of one worker may
// share a log.
func (s *Scratch) SetReadLog(r *ReadLog) { s.reads = r }

// ReadLog collects, once each, the nodes whose adjacency a query read.
// Deduplication stamps an n-length mark array, so one log serves any
// number of queries on graphs of its size; Reset starts the next.
type ReadLog struct {
	mark  []uint32
	epoch uint32
	// Nodes lists the recorded nodes in first-read order.
	Nodes []graph.NodeID
	// Unbounded is set when the query read more than it can list.
	Unbounded bool
}

// NewReadLog returns an empty log for graphs with n nodes.
func NewReadLog(n int) *ReadLog { return &ReadLog{mark: make([]uint32, n), epoch: 1} }

// Add records v unless it is already recorded.
func (r *ReadLog) Add(v graph.NodeID) {
	if r.mark[v] != r.epoch {
		r.mark[v] = r.epoch
		r.Nodes = append(r.Nodes, v)
	}
}

// Reset empties the log in O(1) (with a wraparound clear).
func (r *ReadLog) Reset() {
	r.Nodes = r.Nodes[:0]
	r.Unbounded = false
	r.epoch++
	if r.epoch == 0 {
		clear(r.mark)
		r.epoch = 1
	}
}

// ReleaseView drops the cached adjacency resolution. Owners that pool a
// Scratch across queries (core's executor scratch) call it before
// parking the scratch, so an idle pooled scratch never keeps a retired
// snapshot generation — O(n+m) of CSR arrays — reachable.
func (s *Scratch) ReleaseView() {
	s.adjView = nil
	s.adj = graph.Adj{}
}

// NewScratch returns probe buffers for a graph with n nodes. Each n-length
// array is allocated on first use by the probe kind that reads it:
// deterministic probes (Deterministic, Stepper) use curScore, newScore and
// mark, 20n bytes; randomized ones (Randomized, ContinueRandomized) use
// member and mark, 8n bytes. A Scratch that only ever runs one kind never
// holds the other's arrays.
func NewScratch(n int) *Scratch { return &Scratch{n: n} }

// forDeterministic allocates the arrays deterministic levels read.
func (s *Scratch) forDeterministic() {
	if s.curScore == nil {
		s.curScore = make([]float64, s.n)
		s.newScore = make([]float64, s.n)
	}
	if s.mark == nil {
		s.mark = make([]uint32, s.n)
	}
}

// forRandomized allocates the arrays randomized levels read.
func (s *Scratch) forRandomized() {
	if s.member == nil {
		s.member = make([]uint32, s.n)
	}
	if s.mark == nil {
		s.mark = make([]uint32, s.n)
	}
}

// nextEpoch invalidates all mark stamps in O(1) (with a wraparound reset).
func (s *Scratch) nextEpoch() uint32 {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

func (s *Scratch) nextMemberEpoch() uint32 {
	s.memberEp++
	if s.memberEp == 0 {
		for i := range s.member {
			s.member[i] = 0
		}
		s.memberEp = 1
	}
	return s.memberEp
}

// Result is a deterministic probe outcome: the nodes of the final level and
// a dense score array (indexed by node id, valid only for the listed
// nodes). Both alias Scratch storage and are invalidated by the next probe
// on the same Scratch.
type Result struct {
	Nodes  []graph.NodeID
	Scores []float64
}

// Deterministic runs Algorithm 2 on the partial walk path (path[0] = u).
// epsP > 0 enables pruning rule 2: a frontier node x is not expanded when
// Score(x)·(√c)^(remaining levels) <= epsP. The query node path[0] is never
// assigned a score (Definition 4 requires v ≠ u₁).
//
// The returned scores are exact first-meeting probabilities when epsP == 0,
// and one-sided under-estimates short by at most epsP otherwise (Lemma 7).
//
// All probe entry points accept any graph.View (a mutable *graph.Graph or
// an immutable *graph.Snapshot); the concrete adjacency storage is
// resolved once per call so the per-edge inner loops pay no interface
// dispatch.
func Deterministic(g graph.View, path []graph.NodeID, sqrtC, epsP float64, s *Scratch) Result {
	i := len(path)
	if i < 2 {
		return Result{}
	}
	s.forDeterministic()
	adj := s.adjFor(g)
	cur := append(s.curList[:0], path[i-1])
	s.curScore[path[i-1]] = 1
	for j := 0; j <= i-2; j++ {
		if s.meter.Stopped() {
			// The query's budget tripped mid-probe: abandon the probe and
			// return the EMPTY result. An intermediate frontier holds
			// level-j scores, not final-level first-meeting scores —
			// accumulating it would rank garbage, so a tripped probe
			// contributes nothing (callers surface the budget error, and
			// any partial estimate keeps only fully-probed prefixes).
			return Result{}
		}
		cur = s.deterministicLevel(adj, cur, path[i-j-2], sqrtC, pruneThreshold(epsP, sqrtC, i, j))
		if len(cur) == 0 {
			break
		}
	}
	return Result{Nodes: cur, Scores: s.curScore}
}

// pruneThreshold returns the level-j frontier score below which pruning
// rule 2 drops a node: Score(x)·(√c)^{i-j-1} <= εp. Zero disables pruning.
func pruneThreshold(epsP, sqrtC float64, i, j int) float64 {
	if epsP <= 0 {
		return 0
	}
	return epsP / math.Pow(sqrtC, float64(i-j-1))
}

// deterministicLevel expands one level of Algorithm 2 and returns the next
// frontier. The expanded scores end up in s.curScore (buffers are swapped).
func (s *Scratch) deterministicLevel(adj *graph.Adj, cur []graph.NodeID, excluded graph.NodeID, sqrtC, pruneBelow float64) []graph.NodeID {
	epoch := s.nextEpoch()
	next := s.nextList[:0]
	levelStart := s.Work
	for _, x := range cur {
		sc := s.curScore[x]
		if pruneBelow > 0 && sc <= pruneBelow {
			continue
		}
		w := sqrtC * sc
		out := adj.Out(x)
		s.Work += int64(len(out))
		for _, v := range out {
			if v == excluded {
				continue
			}
			contrib := w / float64(adj.InDegree(v))
			if s.mark[v] == epoch {
				s.newScore[v] += contrib
			} else {
				s.mark[v] = epoch
				s.newScore[v] = contrib
				next = append(next, v)
			}
		}
	}
	// Charge per level: the shared atomic add is within noise next to the
	// level's edge traversals, and ChargeWork's work-boundary polling is
	// what lets an expired deadline surface DURING a long probe instead
	// of only at the next walk-trial checkpoint. A single level remains
	// the uninterruptible unit — the finest granularity that keeps the
	// per-edge inner loop free of budget branches.
	s.meter.ChargeWork(s.Work - levelStart)
	s.meter.AddProbeLevels(1)
	if s.reads != nil {
		for _, v := range next {
			s.reads.Add(v)
		}
	}
	s.curList, s.nextList = next, cur[:0]
	s.curScore, s.newScore = s.newScore, s.curScore
	return next
}

// OutDegreeSum returns the total out-degree of the listed nodes, the
// quantity the §4.4 hybrid compares against c₀·w·n to decide a switch.
func OutDegreeSum(g graph.View, nodes []graph.NodeID) int {
	adj := graph.ResolveAdj(g)
	return outDegreeSum(&adj, nodes)
}

func outDegreeSum(adj *graph.Adj, nodes []graph.NodeID) int {
	sum := 0
	for _, v := range nodes {
		sum += adj.OutDegree(v)
	}
	return sum
}

// Randomized runs Algorithm 4 on the partial walk path. Every node of the
// returned final level is a Bernoulli sample whose success probability
// equals the deterministic score (Lemma 6); the caller counts each returned
// node with weight 1. The returned slice aliases Scratch storage.
func Randomized(g graph.View, path []graph.NodeID, sqrtC float64, rng *xrand.RNG, s *Scratch) []graph.NodeID {
	i := len(path)
	if i < 2 {
		return nil
	}
	s.forRandomized()
	adj := s.adjFor(g)
	ep := s.nextMemberEpoch()
	s.member[path[i-1]] = ep
	cur := append(s.curList[:0], path[i-1])
	for j := 0; j <= i-2; j++ {
		if s.meter.Stopped() {
			// Tripped mid-probe: contribute nothing (see Deterministic).
			return nil
		}
		cur = s.randomizedLevel(adj, cur, path[i-j-2], sqrtC, rng, ep)
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

// ContinueRandomized finishes a probe of path whose levels 0..j have
// already been computed; members must list the sampled membership of level
// j (H_j). It runs the remaining randomized levels and returns the final
// level. members is copied, so callers may reuse their buffer across
// replicas. The returned slice aliases Scratch storage.
func ContinueRandomized(g graph.View, path []graph.NodeID, j int, members []graph.NodeID, sqrtC float64, rng *xrand.RNG, s *Scratch) []graph.NodeID {
	i := len(path)
	if i < 2 || j > i-2 {
		// Nothing left to expand: H_j is the final level. Copy into
		// scratch so the aliasing contract matches the other entry points.
		return append(s.curList[:0], members...)
	}
	s.forRandomized()
	adj := s.adjFor(g)
	ep := s.nextMemberEpoch()
	cur := s.curList[:0]
	for _, v := range members {
		if s.member[v] != ep {
			s.member[v] = ep
			cur = append(cur, v)
		}
	}
	s.curList = cur
	for ; j <= i-2; j++ {
		if s.meter.Stopped() {
			// Tripped mid-probe: contribute nothing (see Deterministic).
			return nil
		}
		cur = s.randomizedLevel(adj, cur, path[i-j-2], sqrtC, rng, ep)
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

// randomizedLevel advances one level of Algorithm 4: from the member set
// stamped in s.member (listed in cur), it samples the next member set and
// returns its node list. excluded is u_{i-j-1}.
func (s *Scratch) randomizedLevel(adj *graph.Adj, cur []graph.NodeID, excluded graph.NodeID, sqrtC float64, rng *xrand.RNG, ep uint32) []graph.NodeID {
	s.meter.AddProbeLevels(1)
	next := s.nextList[:0]
	selected := func(x graph.NodeID) bool {
		in := adj.In(x)
		v := in[rng.Intn(len(in))]
		return s.member[v] == ep && rng.Float64() < sqrtC
	}
	// Candidate set U: union of out-neighbors if cheap, else all nodes
	// (Lines 3-7 of Algorithm 4). Either branch's scan cost is the level's
	// work; charge it up front so a work cap trips at the same place a
	// deterministic probe of the same shape would.
	if ods := outDegreeSum(adj, cur); ods <= s.n {
		s.meter.ChargeWork(int64(ods))
		// Deduplicate candidates with the mark array so each x is sampled
		// exactly once, as in "for each x ∈ U".
		epoch := s.nextEpoch()
		for _, v := range cur {
			for _, x := range adj.Out(v) {
				if x == excluded || s.mark[x] == epoch {
					continue
				}
				s.mark[x] = epoch
				if s.reads != nil {
					s.reads.Add(x)
				}
				if selected(x) {
					next = append(next, x)
				}
			}
		}
	} else {
		s.meter.ChargeWork(int64(s.n))
		if s.reads != nil {
			s.reads.Unbounded = true
		}
		for x := 0; x < s.n; x++ {
			id := graph.NodeID(x)
			if id == excluded || adj.InDegree(id) == 0 {
				continue
			}
			if selected(id) {
				next = append(next, id)
			}
		}
	}
	// Membership stamps move to the new level: clear the old members, then
	// stamp the new ones (a node may appear in both levels).
	for _, v := range cur {
		s.member[v] = 0
	}
	for _, x := range next {
		s.member[x] = ep
	}
	s.curList, s.nextList = next, cur[:0]
	return next
}
