package core

import (
	"sync"

	"probesim/internal/graph"
	"probesim/internal/probe"
)

// queryScratch bundles every reusable buffer one worker needs to run
// ProbeSim trials on a graph with n nodes: the dense score accumulator
// and its touched list, deterministic and randomized probe scratch, the
// walk buffer and the worker's walk tree. A batched-mode set is up to
// ~36n bytes: 8n of accumulator, 20n of deterministic probe arrays and,
// once a hybrid probe switches, 8n of randomized ones (probe.Scratch
// allocates each n-length array on first use by the probe kind that
// reads it). Every query takes its sets from the package's scratch pool.
type queryScratch struct {
	n int
	// acc is the dense score accumulator. touched lists, in order of
	// their first non-zero add, the entries of acc that are non-zero;
	// every other entry is zero. An estimate touches a few hundred of
	// n entries on typical graphs, so merging, scaling, ranking and
	// zeroing walk touched rather than acc.
	acc     []float64
	touched []graph.NodeID
	det     *probe.Scratch
	rnd     *probe.Scratch
	buf     []graph.NodeID

	// Batch-mode extras, lazily grown and recycled with the scratch: the
	// worker's reverse-reachability walk tree (worker 0's also receives
	// the merge), the enumerated path headers, and the arena their node
	// sequences pack into. Their sizes track the walk budget rather than
	// n, which is fine — capacity adapts within a pool bucket exactly like
	// the walk buffer does.
	tree  *WalkTree
	paths []Path
	arena []graph.NodeID

	// reads is the worker's read log, lazily allocated by a tracked query
	// (SingleSourceTracked) and recycled with the scratch; untracked
	// queries never touch it.
	reads *probe.ReadLog
}

// add accumulates x into acc[v], recording v in touched on its first
// non-zero add. Every contribution is non-negative, so an entry that is
// non-zero stays non-zero and is listed exactly once; skipping x == 0
// leaves acc bit-identical to adding it.
func (sc *queryScratch) add(v graph.NodeID, x float64) {
	if x == 0 {
		return
	}
	if sc.acc[v] == 0 {
		sc.touched = append(sc.touched, v)
	}
	sc.acc[v] += x
}

// set overwrites acc[v] with a non-zero x, recording v in touched if it
// was zero.
func (sc *queryScratch) set(v graph.NodeID, x float64) {
	if sc.acc[v] == 0 {
		sc.touched = append(sc.touched, v)
	}
	sc.acc[v] = x
}

// walkTree returns the pooled tree reset to root u, allocating it on
// first use.
func (sc *queryScratch) walkTree(u graph.NodeID) *WalkTree {
	if sc.tree == nil {
		sc.tree = NewWalkTree(u)
	} else {
		sc.tree.Reset(u)
	}
	return sc.tree
}

func newQueryScratch(n int) *queryScratch {
	return &queryScratch{
		n:   n,
		acc: make([]float64, n),
		det: probe.NewScratch(n),
	}
}

// randomized returns the lazily allocated second probe scratch the hybrid
// modes need alongside the deterministic one.
func (sc *queryScratch) randomized() *probe.Scratch {
	if sc.rnd == nil {
		sc.rnd = probe.NewScratch(sc.n)
	}
	return sc.rnd
}

// readLog returns the worker's read log, allocating it on first use. The
// pool hands it out empty.
func (sc *queryScratch) readLog() *probe.ReadLog {
	if sc.reads == nil {
		sc.reads = probe.NewReadLog(sc.n)
	}
	return sc.reads
}

// pool is the scratch pool every query in the package draws from: the
// plain SingleSource and TopK entry points and every Executor alike.
// Answers never depend on it — a pooled set is indistinguishable from a
// fresh one — so sharing it across executors is safe.
var pool scratchPool

// scratchPool hands out queryScratch sets keyed by graph size.
//
// Sizes are pooled independently so a graph that grows via AddNode does
// not poison the pool: stale sizes simply stop being requested and their
// pools drain under GC pressure like any sync.Pool.
type scratchPool struct {
	pools sync.Map // int (n) -> *sync.Pool
}

// get returns a scratch set for graphs with n nodes. Its accumulator is
// zero and its touched list empty (put restores both); probe scratch
// invalidates itself via epochs.
func (p *scratchPool) get(n int) *queryScratch {
	v, ok := p.pools.Load(n)
	if !ok {
		v, _ = p.pools.LoadOrStore(n, &sync.Pool{})
	}
	if s, ok := v.(*sync.Pool).Get().(*queryScratch); ok {
		return s
	}
	return newQueryScratch(n)
}

// put returns a scratch set to the pool. It zeroes the accumulator over
// the touched list, so no caller can park a dirty set; drops any cached
// view resolution, so a parked scratch never pins a retired snapshot
// generation in memory; and detaches any budget meter and read log, so a
// recycled scratch can never observe a previous query's expiry or record
// into its reads.
func (p *scratchPool) put(s *queryScratch) {
	for _, v := range s.touched {
		s.acc[v] = 0
	}
	s.touched = s.touched[:0]
	s.det.ReleaseView()
	s.det.SetMeter(nil)
	s.det.SetReadLog(nil)
	if s.rnd != nil {
		s.rnd.ReleaseView()
		s.rnd.SetMeter(nil)
		s.rnd.SetReadLog(nil)
	}
	if s.reads != nil {
		s.reads.Reset()
	}
	if v, ok := p.pools.Load(s.n); ok {
		v.(*sync.Pool).Put(s)
	}
}
