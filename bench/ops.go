package main

import (
	"slices"

	"probesim/internal/graph"
	"probesim/internal/hotidx"
	"probesim/internal/xrand"
)

// batchEdges is the size of every write: one 4-edge /edges/batch, the
// shape cmd/probesim-loadgen sends.
const batchEdges = 4

// churnDepth is how many added batches stay in the graph before the stream
// starts removing the oldest. Past the first churnDepth writes, adds and
// removes alternate, so the graph never drifts more than
// churnDepth*batchEdges edges from its baseline.
const churnDepth = 8

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

type edge struct{ U, V int32 }

// op is one operation of a workload's stream.
type op struct {
	Kind   opKind
	U      int32            // read: the query source
	Remove bool             // write: remove Edges instead of adding them
	Edges  [batchEdges]edge // write: the batch
}

// mix is the shape of a workload's op stream.
type mix struct {
	WriteFrac float64 // share of ops that are writes
	Zipf      float64 // Zipf exponent of read sources; 0 means uniform
}

// stream derives a workload's ops from one seed. Every random decision
// has its own split stream of that seed, the way cmd/probesim-loadgen
// derives its clients, so changing the write share does not move the
// read sources.
//
// Reads query only nodes with in-neighbours. A node without them has
// SimRank 0 to every other node and answers without running the kernel;
// half the nodes of the benchmark graph have none, so sources drawn from
// all nodes would put the median read on the boundary between trivial
// and real queries, where it jumps between runs.
//
// Writes are net-zero churn: an add batch names four edges that are
// neither in the base graph nor pending, and is removed again by a later
// write (or by drain). Removing a churn edge never disturbs the base
// adjacency order, so once every batch is removed the graph is exactly
// the base graph again.
type stream struct {
	mix  mix
	base graph.View // the graph as loaded
	pool []int32    // read sources: the nodes of base with in-neighbours

	kinds, sources, churn *xrand.RNG
	zipf                  *hotidx.Zipf

	pending [][batchEdges]edge // added batches not yet removed, oldest first
	live    map[edge]bool      // edges of pending batches
}

// Split-stream indices of a workload seed.
const (
	streamKinds = iota
	streamSources
	streamChurn
	streamChecks
	streamAccuracy
)

func newStream(m mix, seed uint64, base graph.View) *stream {
	master := xrand.New(seed)
	s := &stream{
		mix: m, base: base,
		kinds: xrand.New(master.SplitState(streamKinds)),
		churn: xrand.New(master.SplitState(streamChurn)),
		live:  make(map[edge]bool),
	}
	for v := 0; v < base.NumNodes(); v++ {
		if base.InDegree(graph.NodeID(v)) > 0 {
			s.pool = append(s.pool, int32(v))
		}
	}
	if m.Zipf > 0 {
		s.zipf = hotidx.NewZipf(len(s.pool), m.Zipf, master.SplitState(streamSources))
	} else {
		s.sources = xrand.New(master.SplitState(streamSources))
	}
	return s
}

// next returns the next op of the stream.
func (s *stream) next() op {
	if s.kinds.Bernoulli(s.mix.WriteFrac) {
		o := op{Kind: opWrite}
		o.Remove, o.Edges = s.write()
		return o
	}
	return op{U: s.source()}
}

func (s *stream) source() int32 {
	if s.zipf != nil {
		return s.pool[s.zipf.Next()]
	}
	return s.pool[s.sources.Intn(len(s.pool))]
}

// write returns the next churn batch: an add while fewer than churnDepth
// batches are pending, otherwise the removal of the oldest pending one.
func (s *stream) write() (remove bool, b [batchEdges]edge) {
	if len(s.pending) >= churnDepth {
		return true, s.popPending()
	}
	for i := range b {
		b[i] = s.freshEdge()
		s.live[b[i]] = true
	}
	s.pending = append(s.pending, b)
	return false, b
}

// freshEdge draws an edge that is not a self-loop, not in the base graph
// and not pending.
func (s *stream) freshEdge() edge {
	for {
		n := s.base.NumNodes()
		e := edge{int32(s.churn.Intn(n)), int32(s.churn.Intn(n))}
		if e.U != e.V && !s.live[e] && !slices.Contains(s.base.OutNeighbors(graph.NodeID(e.U)), graph.NodeID(e.V)) {
			return e
		}
	}
}

func (s *stream) popPending() [batchEdges]edge {
	b := s.pending[0]
	s.pending = s.pending[1:]
	for _, e := range b {
		delete(s.live, e)
	}
	return b
}

// drain returns removal ops for every pending batch, oldest first, which
// bring the graph back to its base state.
func (s *stream) drain() []op {
	var ops []op
	for len(s.pending) > 0 {
		ops = append(ops, op{Kind: opWrite, Remove: true, Edges: s.popPending()})
	}
	return ops
}
