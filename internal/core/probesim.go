// Package core implements ProbeSim (the paper's primary contribution):
// index-free approximate single-source and top-k SimRank with a provable
// absolute-error guarantee. See Options and Mode for the variants.
//
// The estimator follows §3.1: for each of nr sampled √c-walks W(u) from the
// query node, every prefix W(u, i) is probed for the first-meeting
// probability of every node v, and s̃(u, v) averages the per-walk sums.
// Lemma 1 shows each trial is unbiased, and Theorems 1-3 bound the error of
// the basic, pruned, and randomized variants respectively.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/probe"
	"probesim/internal/qtrace"
	"probesim/internal/walk"
	"probesim/internal/xrand"
)

// ErrBudget is returned (wrapped) when a query exhausts an explicit work
// budget (Budget.MaxWalks or Budget.MaxProbeWork) rather than a deadline.
// Deadline and cancellation stops unwrap to context.DeadlineExceeded and
// context.Canceled respectively.
var ErrBudget = budget.ErrBudget

// ScoredNode is one entry of a top-k answer.
type ScoredNode struct {
	Node  graph.NodeID
	Score float64
}

// QueryBinder is implemented by views whose adjacency must be fetched
// before a query can run on it: the distributed router's view fetches
// every shard block it lacks under the query's context (so the fetch
// runs under the query's deadline) and returns the snapshot the kernels
// run on. A failed fetch fails the query before any kernel runs, with no
// partial estimate, like a query that is dead on arrival.
type QueryBinder interface {
	BindQuery(ctx context.Context) (graph.View, error)
}

// BindView resolves the view a query on g runs on under ctx: what a
// QueryBinder binds, and for ordinary views g itself, for free. Callers
// that scan a view's adjacency outside the query kernels (component
// scans) bind through it as queries do.
func BindView(ctx context.Context, g graph.View) (graph.View, error) {
	if b, ok := g.(QueryBinder); ok {
		return b.BindQuery(ctx)
	}
	return g, nil
}

// SingleSource answers an approximate single-source SimRank query
// (Definition 1): it returns s̃(u, v) for every node v, with
// |s̃(u,v) − s(u,v)| <= εa for all v simultaneously with probability
// >= 1 − δ. The result slice has length g.NumNodes() and result[u] = 1.
//
// g may be a mutable *graph.Graph or an immutable *graph.Snapshot; results
// are bit-identical between the two for the same seed. A *graph.Graph must
// not be mutated while the query runs; concurrent queries on the same view
// are safe. Per-query working memory comes from a package-level pool
// shared with Executor; for serving workloads prefer Executor, which adds
// snapshot publication on top of this entry point.
//
// The query honors ctx and opt.Budget: cancellation, a deadline, or an
// exhausted walk/work budget stops every worker at its next checkpoint
// (amortized every few walk trials and every probe level, so detection
// latency is microseconds of work). A stopped query returns its partial
// estimate together with a non-nil error wrapping the cause — the partial
// vector carries no accuracy guarantee.
func SingleSource(ctx context.Context, g graph.View, u graph.NodeID, opt Options) ([]float64, error) {
	return singleSourceInto(ctx, g, u, opt, nil)
}

// SingleSourceRanked answers the same query as SingleSource, kept sparse:
// the returned Ranked holds only the non-zero scores, strongest first,
// and its Dense method rebuilds SingleSource's vector bit for bit. It
// never builds an n-vector, so it is the form serving caches hold and
// rank from. Cancellation and budget semantics follow SingleSource: a
// stopped query returns its partial answer together with the error, and
// a query that never ran returns nil.
func SingleSourceRanked(ctx context.Context, g graph.View, u graph.NodeID, opt Options) (*Ranked, error) {
	var r *Ranked
	err := runQuery(ctx, g, u, opt, nil, func(sc *queryScratch) { r = sc.ranked(u) })
	return r, err
}

// singleSourceInto is SingleSource with an optional caller-provided result
// buffer: when cap(dst) suffices the answer is written in place and no
// result vector is allocated.
func singleSourceInto(ctx context.Context, g graph.View, u graph.NodeID, opt Options, dst []float64) ([]float64, error) {
	var est []float64
	err := runQuery(ctx, g, u, opt, nil, func(sc *queryScratch) { est = sc.scatter(dst) })
	return est, err
}

// runQuery runs one query and hands its estimate to consume: the merged
// worker accumulators, scaled, compensated and with s̃(u, u) = 1, held in
// pooled scratch that returns to the pool once consume returns. consume
// runs whenever the kernel ran, also for a stopped query (its partial
// estimate); a query that fails validation, is dead on arrival or whose
// view cannot be bound returns its error without calling it. A non-nil
// reads asks for the query's read set, which runQuery stores there
// whenever the kernel ran (nil, the unbounded set, unless a batched mode
// recorded it).
func runQuery(ctx context.Context, g graph.View, u graph.NodeID, opt Options, reads *ReadSet, consume func(*queryScratch)) error {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return err
	}
	n := g.NumNodes()
	if u < 0 || int(u) >= n {
		return fmt.Errorf("core: query node %d out of range [0, %d)", u, n)
	}
	m := budget.New(ctx, opt.Budget.Timeout, opt.Budget.MaxWalks, opt.Budget.MaxProbeWork)
	if m.Poll() {
		// Dead on arrival: no work was done, so there is no partial result.
		return queryError(u, m)
	}
	g, err := BindView(ctx, g)
	if err != nil {
		return fmt.Errorf("core: query %d: %w", u, err)
	}
	plan := planFor(opt, n)
	// One kernel span covers the whole estimator run; the meter's stage
	// totals (walk vs probe) and probe-level counter refine it.
	tr, parent := qtrace.FromContext(ctx)
	kref := tr.StartSpan("kernel", parent)
	tr.Annotate(kref, fmt.Sprintf("mode=%d,walks=%d,workers=%d", plan.Mode, plan.NumWalks, plan.Workers))
	var scs []*queryScratch
	tracked := false
	switch plan.Mode {
	case ModeBasic, ModePruned, ModeRandomized:
		scs = runPerWalk(g, u, plan, m)
	case ModeAuto, ModeBatch, ModeHybrid:
		tracked = reads != nil
		scs = runBatched(g, u, plan, m, tracked)
	}
	if tr != nil {
		tr.EndSpanAnnot(kref, fmt.Sprintf("walks=%d,work=%d", m.Walks(), m.Work()))
	}
	est := mergeScratch(scs, 1/float64(plan.NumWalks))
	if plan.Compensate && plan.EpsT > 0 {
		half := plan.EpsT / 2
		for _, v := range est.touched {
			if est.acc[v] > 0 && est.acc[v]+half <= 1 {
				est.acc[v] += half
			}
		}
	}
	est.set(u, 1) // s(u, u) = 1 by definition
	consume(est)
	if tracked {
		*reads = est.readSet()
	}
	for _, sc := range scs {
		pool.put(sc)
	}
	if m.Stopped() {
		return queryError(u, m)
	}
	return nil
}

// queryError wraps a tripped meter's error with the query identity.
func queryError(u graph.NodeID, m *budget.Meter) error {
	return fmt.Errorf("core: query %d: %w", u, m.Err())
}

// TopK answers an approximate top-k SimRank query (Definition 2): the k
// nodes with the largest estimated similarity to u (excluding u itself),
// in descending score order with node id breaking ties. If the graph has
// fewer than k other nodes, all of them are returned. Cancellation and
// budget semantics follow SingleSource: a stopped query returns the
// ranking of its partial estimate together with the error. The answer is
// SingleSourceRanked's prefix, which equals SelectTopK over
// SingleSource's vector bit for bit without building that vector.
func TopK(ctx context.Context, g graph.View, u graph.NodeID, k int, opt Options) ([]ScoredNode, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k requires k >= 1, got %d", k)
	}
	r, err := SingleSourceRanked(ctx, g, u, opt)
	if r == nil {
		return nil, err
	}
	return r.TopK(k), err
}

// SelectTopK extracts the k highest-scoring nodes from a single-source
// estimate vector, excluding the query node, ordering by descending score
// and ascending node id. It is shared by every algorithm in this
// repository so that ranking semantics are identical across competitors.
func SelectTopK(est []float64, u graph.NodeID, k int) []ScoredNode {
	h := topKHeap{k: k, h: make([]ScoredNode, 0, k)}
	for v, sc := range est {
		if x := (ScoredNode{Node: graph.NodeID(v), Score: sc}); x.Node != u && h.admits(x) {
			h.insert(x)
		}
	}
	return h.sorted()
}

// topKHeap is SelectTopK's bounded selection: a min-heap of at most k
// candidates, weakest at the root.
type topKHeap struct {
	k int
	h []ScoredNode
}

// weaker is the heap order: smallest score first; for equal scores the
// LARGER id is weaker (so ties resolve toward smaller ids in the answer).
func weaker(a, b ScoredNode) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node > b.Node
}

// admits reports whether x enters the heap: it holds fewer than k
// candidates, or x beats the weakest. It inlines, so a scan over a dense
// vector pays one comparison per entry that stays out.
func (t *topKHeap) admits(x ScoredNode) bool {
	return len(t.h) < t.k || weaker(t.h[0], x)
}

// insert adds an admitted x, replacing the weakest candidate when the
// heap is full.
func (t *topKHeap) insert(x ScoredNode) {
	if len(t.h) < t.k {
		h := append(t.h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !weaker(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		t.h = h
		return
	}
	h := t.h
	h[0] = x
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && weaker(h[l], h[small]) {
			small = l
		}
		if r < len(h) && weaker(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// sorted returns the candidates strongest first, consuming the heap.
func (t *topKHeap) sorted() []ScoredNode {
	sort.Slice(t.h, func(i, j int) bool { return weaker(t.h[j], t.h[i]) })
	return t.h
}

// scatter writes the estimate into a dense n-vector, reusing dst when its
// capacity suffices.
func (sc *queryScratch) scatter(dst []float64) []float64 {
	var out []float64
	if cap(dst) >= sc.n {
		out = dst[:sc.n]
		clear(out)
	} else {
		out = make([]float64, sc.n)
	}
	for _, v := range sc.touched {
		out[v] = sc.acc[v]
	}
	return out
}

// walkStreamBase offsets the per-trial walk RNG streams: walk trial t of
// a query draws from Split(walkStreamBase + t) of the seed stream, in
// every mode. The base keeps trial streams disjoint from the other
// streams a query derives (per-path probe streams at +0x10000, the
// progressive kernel's 0 and 1). Deriving one independent stream per
// TRIAL — rather than per worker — is what makes results independent of
// the worker count.
const walkStreamBase = 1 << 32

// runPerWalk executes the non-batched modes: nr independent trials, each
// generating one √c-walk and probing all of its prefixes. Trials are
// partitioned across workers, each trial drawing from its own seed-derived
// RNG stream (walkStreamBase + trial), so estimates do not depend on the
// worker count. It returns the workers' scratch sets, which the caller
// merges and returns to the pool.
//
// Each worker checkpoints the shared meter at every trial boundary (one
// atomic load, with a full clock/context poll every checkpoint interval)
// and between the probes of one walk's prefixes; once any worker trips
// the meter, every worker drains out at its next check and the partial
// accumulators merge normally, so scratch always returns to the pool.
func runPerWalk(g graph.View, u graph.NodeID, plan Plan, m *budget.Meter) []*queryScratch {
	n := g.NumNodes()
	workers := plan.Workers
	if workers > plan.NumWalks {
		workers = plan.NumWalks
	}
	if workers < 1 {
		workers = 1
	}
	scs := make([]*queryScratch, workers)
	root := xrand.New(plan.Seed)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := plan.NumWalks * w / workers
		hi := plan.NumWalks * (w + 1) / workers
		sc := pool.get(n)
		scs[w] = sc
		wg.Add(1)
		go func(lo, hi int, sc *queryScratch) {
			defer wg.Done()
			var rng xrand.RNG
			gen := walk.NewGenerator(g, plan.C, &rng)
			gen.SetMeter(m)
			s := sc.det
			s.SetMeter(m)
			buf := sc.buf
			cp := budget.NewCheckpoint(m, budget.DefaultInterval)
			for t := lo; t < hi; t++ {
				if cp.Stop() {
					break
				}
				// The trial stream covers the walk and, for the randomized
				// variant, continues into that trial's probes.
				rng.SetState(root.SplitState(walkStreamBase + uint64(t)))
				buf = gen.Generate(u, plan.MaxWalkNodes, buf)
				clk := m.StageStart() // probe window; walk time is charged inside Generate
				for i := 2; i <= len(buf); i++ {
					if m.Stopped() {
						break
					}
					prefix := buf[:i]
					if plan.Mode == ModeRandomized {
						for _, v := range probe.Randomized(g, prefix, plan.SqrtC, &rng, s) {
							sc.add(v, 1)
						}
					} else {
						res := probe.Deterministic(g, prefix, plan.SqrtC, plan.EpsP, s)
						for _, v := range res.Nodes {
							sc.add(v, res.Scores[v])
						}
					}
				}
				m.StageEnd(qtrace.StageProbe, clk)
				m.ChargeWalks(1)
			}
			sc.buf = buf
		}(lo, hi, sc)
	}
	wg.Wait()
	return scs
}

// runBatched executes the batch and hybrid modes: build the reverse
// reachability tree from nr walks (§4.2), then probe each root-to-node
// path once, weighted by how many walks share it. Paths are distributed
// across workers by index. Like runPerWalk it returns the workers'
// scratch sets for the caller to merge and pool. With track set, the
// first scratch's read log ends up holding the query's read set: the
// tree's nodes, whose in-lists the walks read, and every node the
// workers' probes logged.
func runBatched(g graph.View, u graph.NodeID, plan Plan, m *budget.Meter, track bool) []*queryScratch {
	n := g.NumNodes()
	rootRNG := xrand.New(plan.Seed)
	scs := make([]*queryScratch, max(1, min(plan.Workers, plan.NumWalks)))
	for w := range scs {
		scs[w] = pool.get(n)
	}
	tree := buildTree(g, u, plan, m, rootRNG, scs)
	// Path enumeration is walk-stage work too. The paths pack into worker
	// 0's pooled arena and are consumed before the scratch returns to the
	// pool.
	clk := m.StageStart()
	paths, arena := tree.AppendPaths(scs[0].paths[:0], scs[0].arena[:0])
	scs[0].paths, scs[0].arena = paths, arena
	if track {
		log := scs[0].readLog()
		for _, v := range tree.node {
			log.Add(v)
		}
	}
	m.StageEnd(qtrace.StageWalk, clk)

	// The walk workers' scratch sets, accumulators still zero, serve the
	// probe workers, of which there is at most one per path.
	workers := max(1, min(plan.Workers, len(paths)))
	for len(scs) < workers {
		scs = append(scs, pool.get(n))
	}
	for _, sc := range scs[workers:] {
		pool.put(sc)
	}
	scs = scs[:workers]
	hybrid := plan.Mode == ModeHybrid || plan.Mode == ModeAuto
	probeRange := func(w int) {
		sc := scs[w]
		det := sc.det
		det.SetMeter(m)
		var rnd *probe.Scratch
		if hybrid {
			rnd = sc.randomized()
			rnd.SetMeter(m)
		}
		if track {
			det.SetReadLog(sc.readLog())
			if rnd != nil {
				rnd.SetReadLog(sc.reads)
			}
		}
		cp := budget.NewCheckpoint(m, budget.DefaultInterval)
		// One probe window per worker: stage totals aggregate the
		// workers' concurrent probe time (CPU-seconds, not wall clock).
		clk := m.StageStart()
		for pi := w; pi < len(paths); pi += workers {
			if cp.Stop() {
				break
			}
			p := paths[pi]
			// Each path gets its own RNG stream so results do not
			// depend on the worker count.
			rng := rootRNG.Split(uint64(pi) + 0x10000)
			if hybrid {
				probePathHybrid(g, p, plan, sc, rnd, rng, m)
			} else {
				res := probe.Deterministic(g, p.Nodes, plan.SqrtC, plan.EpsP, det)
				scale := float64(p.Weight)
				for _, v := range res.Nodes {
					sc.add(v, scale*res.Scores[v])
				}
			}
		}
		m.StageEnd(qtrace.StageProbe, clk)
	}
	onWorkers(workers, probeRange)
	if track {
		log := scs[0].reads
		for _, sc := range scs[1:] {
			for _, v := range sc.reads.Nodes {
				log.Add(v)
			}
			log.Unbounded = log.Unbounded || sc.reads.Unbounded
		}
	}
	return scs
}

// buildTree builds the query's walk tree from its nr walks and returns
// it, merged into scs[0]'s tree. There is one worker per scratch set:
// worker w draws the w-th of len(scs) contiguous trial ranges, trial t
// from the stream the per-walk modes use for it (walkStreamBase + t),
// straight into its own tree. The trees then merge into worker 0's in
// worker order, which yields the tree serial insertion of trials
// 0..nr-1 builds, so the tree, its path order and every per-path stream
// do not depend on the worker count. The workers share only the
// read-only root stream and adjacency, and the query's meter.
//
// Walks are charged to the meter in one batch per worker, or one at a time
// when the query caps them, so the cap trips within one walk per worker.
// Tree growth is cheap relative to probes, so the stage polls at a coarser
// interval; a budget tripping here leaves partial trees whose paths the
// (immediately draining) probe stage never expands.
func buildTree(g graph.View, u graph.NodeID, plan Plan, m *budget.Meter, root *xrand.RNG, scs []*queryScratch) *WalkTree {
	adj := graph.ResolveAdj(g)
	perWalk := m.WalkCapped()
	grow := func(w int) {
		clk := m.StageStart()
		tree := scs[w].walkTree(u)
		cp := budget.NewCheckpoint(m, 4*budget.DefaultInterval)
		var (
			rng   xrand.RNG
			drawn int64
		)
		lo, hi := plan.NumWalks*w/len(scs), plan.NumWalks*(w+1)/len(scs)
		for t := lo; t < hi; t++ {
			if cp.Stop() {
				break
			}
			rng.SetState(root.SplitState(walkStreamBase + uint64(t)))
			tree.Draw(&adj, plan.MaxWalkNodes-1, plan.SqrtC, &rng)
			if perWalk {
				m.ChargeWalks(1)
			} else {
				drawn++
			}
		}
		m.ChargeWalks(drawn)
		m.StageEnd(qtrace.StageWalk, clk)
	}
	onWorkers(len(scs), grow)
	clk := m.StageStart()
	tree := scs[0].tree
	for _, sc := range scs[1:] {
		tree.Merge(sc.tree)
	}
	m.StageEnd(qtrace.StageWalk, clk)
	return tree
}

// onWorkers runs f(0), ..., f(workers-1) concurrently, f(0) on the
// calling goroutine, and returns when all have.
func onWorkers(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	f(0)
	wg.Wait()
}

// probePathHybrid probes one weighted path with the §4.4 strategy: expand
// deterministically while the frontier is cheap; if the next expansion
// would cost more than c0·w·n edge traversals, finish each of the w walk
// replicas with a randomized continuation seeded by Bernoulli(score)
// membership of the current level (unbiased by Lemma 6).
func probePathHybrid(g graph.View, p Path, plan Plan, sc *queryScratch, rnd *probe.Scratch, rng *xrand.RNG, m *budget.Meter) {
	workCap := plan.HybridC0 * float64(p.Weight) * float64(sc.n)
	st := probe.NewStepper(g, p.Nodes, plan.SqrtC, plan.EpsP, sc.det)
	for !st.Done() {
		nodes, scores := st.Frontier()
		if float64(st.FrontierOutDegreeSum()) > workCap {
			// Switch: snapshot the frontier, then run weight replicas.
			level := st.Level()
			fNodes := append([]graph.NodeID(nil), nodes...)
			fScores := make([]float64, len(fNodes))
			for i, v := range fNodes {
				fScores[i] = scores[v]
			}
			members := make([]graph.NodeID, 0, len(fNodes))
			for r := int64(0); r < p.Weight; r++ {
				// A heavy path runs one replica per pooled walk; check the
				// shared meter per replica so a huge-weight path cannot
				// outlive the query's deadline by itself.
				if m.Stopped() {
					return
				}
				members = members[:0]
				for i, v := range fNodes {
					if rng.Float64() < fScores[i] {
						members = append(members, v)
					}
				}
				for _, v := range probe.ContinueRandomized(g, p.Nodes, level, members, plan.SqrtC, rng, rnd) {
					sc.add(v, 1)
				}
			}
			return
		}
		if m.Stopped() {
			return
		}
		st.Step()
	}
	nodes, scores := st.Frontier()
	scale := float64(p.Weight)
	for _, v := range nodes {
		sc.add(v, scale*scores[v])
	}
}

// mergeScratch folds the worker accumulators into the first one over
// their touched lists, in worker order, and multiplies the merged entries
// by scale. Per entry these are the additions, in the same order, that
// summing the dense vectors makes (an untouched entry adds an exact
// zero), so the estimate is bit-identical to the dense merge.
func mergeScratch(scs []*queryScratch, scale float64) *queryScratch {
	out := scs[0]
	for _, sc := range scs[1:] {
		for _, v := range sc.touched {
			out.add(v, sc.acc[v])
		}
	}
	for _, v := range out.touched {
		out.acc[v] *= scale
	}
	return out
}
