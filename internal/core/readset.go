package core

import (
	"context"
	"slices"

	"probesim/internal/graph"
)

// ReadSet is what a tracked query read of its graph: the ids, ascending
// and without repeats, of every node whose in- or out-list or degree the
// kernel looked at, 4 bytes each. A nil ReadSet is unbounded: the query
// read more than it recorded (a per-walk mode, or a randomized probe
// level that scanned every node), so any write may change its answer.
//
// The kernel reads a graph only through per-node lists and degrees and
// NumNodes, and an edge op U → V changes only U's out-list and V's
// in-list (never the node count). So if no op of a batch has an endpoint
// in the set, a rerun with the same options reads the same bytes and
// returns the same bits: the answer carries across the batch.
type ReadSet []graph.NodeID

// Touched reports whether applying ops can change an answer that read
// rs: always for an unbounded set, otherwise when an op has an endpoint
// in rs.
func (rs ReadSet) Touched(ops []graph.EdgeOp) bool {
	if rs == nil {
		return true
	}
	for _, op := range ops {
		if _, ok := slices.BinarySearch(rs, op.U); ok {
			return true
		}
		if _, ok := slices.BinarySearch(rs, op.V); ok {
			return true
		}
	}
	return false
}

// SingleSourceTracked answers the same query as SingleSourceRanked, bit
// for bit, and also reports the answer's read set: the walk tree's nodes,
// every probe frontier node at every level, and every candidate a
// randomized level sampled. Only the batched modes (Auto, Batch, Hybrid)
// report a bounded set; the per-walk modes report an unbounded one. The
// set is collected into pooled per-worker logs, so it costs a pass over
// each probe level's frontier and one sort, and never an n-sized
// allocation. Cancellation and budget semantics follow SingleSource.
func SingleSourceTracked(ctx context.Context, g graph.View, u graph.NodeID, opt Options) (*Ranked, ReadSet, error) {
	var (
		r     *Ranked
		reads ReadSet
	)
	err := runQuery(ctx, g, u, opt, &reads, func(sc *queryScratch) { r = sc.ranked(u) })
	return r, reads, err
}

// readSet returns a sorted copy of a merged read log, or nil when the
// log is unbounded.
func (sc *queryScratch) readSet() ReadSet {
	if sc.reads.Unbounded {
		return nil
	}
	rs := ReadSet(slices.Clone(sc.reads.Nodes))
	slices.Sort(rs)
	return rs
}
