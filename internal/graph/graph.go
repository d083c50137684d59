// Package graph provides the directed, dynamic graph substrate that every
// SimRank algorithm in this repository runs on.
//
// The representation is a pair of adjacency lists (in-neighbors and
// out-neighbors per node), which supports the operations the paper's
// algorithms need at their natural costs:
//
//   - uniform sampling of an in-neighbor in O(1) (√c-walk steps),
//   - iteration over out-neighbors in O(out-degree) (PROBE expansion),
//   - edge insertion and removal in O(degree) (dynamic-graph workloads).
//
// Graphs are not safe for concurrent mutation, but any number of readers may
// query a graph concurrently as long as no writer is active. This matches
// the paper's usage: queries are parallelized internally, updates are
// applied between queries.
package graph

import (
	"fmt"
)

// NodeID identifies a node. Nodes are dense integers in [0, NumNodes).
type NodeID = int32

// EdgeOp is one edge mutation: insert the directed edge U -> V, or with
// Remove set, delete one occurrence of it. It is the single op type of
// the whole write plane — the HTTP write endpoints, the router's
// broadcast, the shard RPC, the write-ahead log and the shard store's
// batch apply all speak it.
type EdgeOp struct {
	Remove bool
	U, V   NodeID
}

// Graph is a directed multigraph with dynamic edge updates.
//
// The zero value is an empty graph with no nodes.
type Graph struct {
	in      [][]NodeID // in[v] lists u for every edge u -> v
	out     [][]NodeID // out[u] lists v for every edge u -> v
	m       int64      // number of edges
	version uint64     // incremented by every mutation
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		in:  make([][]NodeID, n),
		out: make([][]NodeID, n),
	}
}

// FromEdges builds a graph with n nodes and the given directed edges.
func FromEdges(n int, edges [][2]NodeID) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out) }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.m }

// AddNode appends a new isolated node and returns its id.
func (g *Graph) AddNode() NodeID {
	g.in = append(g.in, nil)
	g.out = append(g.out, nil)
	g.version++
	return NodeID(len(g.out) - 1)
}

// Version returns a counter that increments on every mutation. Callers
// caching derived results (see core.Querier) compare versions to detect
// staleness.
func (g *Graph) Version() uint64 { return g.version }

// checkNode panics with a descriptive message when v is out of range. The
// adjacency accessors are on the hot path of every algorithm, so they use
// plain slice indexing; mutation entry points validate explicitly.
func (g *Graph) checkNode(v NodeID) error {
	if v < 0 || int(v) >= len(g.out) {
		return fmt.Errorf("graph: node %d out of range [0, %d)", v, len(g.out))
	}
	return nil
}

// AddEdge inserts the directed edge u -> v. Self-loops are rejected because
// SimRank is defined on simple graphs; parallel edges are permitted (they
// bias uniform in-neighbor sampling toward the repeated edge, which is the
// standard multigraph semantics).
func (g *Graph) AddEdge(u, v NodeID) error {
	if err := g.checkNode(u); err != nil {
		return err
	}
	if err := g.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop %d -> %d rejected", u, v)
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
	g.version++
	return nil
}

// AddEdgeUndirected inserts both u -> v and v -> u.
func (g *Graph) AddEdgeUndirected(u, v NodeID) error {
	if err := g.AddEdge(u, v); err != nil {
		return err
	}
	return g.AddEdge(v, u)
}

// HasEdge reports whether at least one edge u -> v exists. It scans the
// shorter of the two adjacency lists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if g.checkNode(u) != nil || g.checkNode(v) != nil {
		return false
	}
	if len(g.out[u]) <= len(g.in[v]) {
		for _, w := range g.out[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for _, w := range g.in[v] {
		if w == u {
			return true
		}
	}
	return false
}

// RemoveEdge removes one occurrence of the edge u -> v. It returns an error
// if no such edge exists. Removal is O(degree) and does not preserve the
// order of the remaining adjacency entries.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	if err := g.checkNode(u); err != nil {
		return err
	}
	if err := g.checkNode(v); err != nil {
		return err
	}
	if RemoveOne(&g.out[u], v) < 0 {
		return fmt.Errorf("graph: edge %d -> %d not found", u, v)
	}
	if RemoveOne(&g.in[v], u) < 0 {
		// The two lists are kept in lockstep; this is unreachable unless
		// memory was corrupted externally.
		panic("graph: adjacency lists out of sync")
	}
	g.m--
	g.version++
	return nil
}

// RemoveOne deletes the first occurrence of x from the list by swapping
// it with the tail. These exact semantics (first match, tail swap) are
// load-bearing: every adjacency backend (this package's Graph, the
// sharded store) must remove identically so that the surviving neighbor
// ORDER — which walk sampling and randomized probes consume randomness
// against — stays bit-identical across backends that saw the same
// operation sequence. It returns the index x was removed from, or -1
// when the list does not hold x.
func RemoveOne(list *[]NodeID, x NodeID) int {
	s := *list
	for i, w := range s {
		if w == x {
			s[i] = s[len(s)-1]
			*list = s[:len(s)-1]
			return i
		}
	}
	return -1
}

// InNeighbors returns the in-neighbor list of v. The returned slice is the
// graph's internal storage: callers must not modify it, and it is
// invalidated by the next mutation of the graph.
func (g *Graph) InNeighbors(v NodeID) []NodeID { return g.in[v] }

// OutNeighbors returns the out-neighbor list of u under the same contract
// as InNeighbors.
func (g *Graph) OutNeighbors(u NodeID) []NodeID { return g.out[u] }

// InDegree returns |I(v)|.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// OutDegree returns |O(u)|.
func (g *Graph) OutDegree(u NodeID) int { return len(g.out[u]) }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		in:  make([][]NodeID, len(g.in)),
		out: make([][]NodeID, len(g.out)),
		m:   g.m,
	}
	for v, l := range g.in {
		if len(l) > 0 {
			c.in[v] = append([]NodeID(nil), l...)
		}
	}
	for v, l := range g.out {
		if len(l) > 0 {
			c.out[v] = append([]NodeID(nil), l...)
		}
	}
	return c
}

// Transpose returns a new graph with every edge reversed.
func (g *Graph) Transpose() *Graph {
	t := g.Clone()
	t.in, t.out = t.out, t.in
	return t
}

// MemoryBytes estimates the resident size of the adjacency structure in
// bytes (used for the space-overhead columns of Table 4).
func (g *Graph) MemoryBytes() int64 {
	const sliceHeader = 24
	b := int64(len(g.in)+len(g.out)) * sliceHeader
	for _, l := range g.in {
		b += int64(cap(l)) * 4
	}
	for _, l := range g.out {
		b += int64(cap(l)) * 4
	}
	return b
}

// Validate checks internal invariants: edge count consistency and that the
// in- and out-lists describe the same edge multiset. It is O(n + m log m)
// and intended for tests.
func (g *Graph) Validate() error {
	if len(g.in) != len(g.out) {
		return fmt.Errorf("graph: %d in-lists vs %d out-lists", len(g.in), len(g.out))
	}
	var nOut, nIn int64
	counts := make(map[[2]NodeID]int64)
	for u, l := range g.out {
		for _, v := range l {
			if err := g.checkNode(v); err != nil {
				return fmt.Errorf("graph: out[%d] contains invalid node: %w", u, err)
			}
			counts[[2]NodeID{NodeID(u), v}]++
			nOut++
		}
	}
	for v, l := range g.in {
		for _, u := range l {
			if err := g.checkNode(u); err != nil {
				return fmt.Errorf("graph: in[%d] contains invalid node: %w", v, err)
			}
			counts[[2]NodeID{u, NodeID(v)}]--
			nIn++
		}
	}
	if nOut != nIn || nOut != g.m {
		return fmt.Errorf("graph: edge counts disagree: out=%d in=%d m=%d", nOut, nIn, g.m)
	}
	for e, c := range counts {
		if c != 0 {
			return fmt.Errorf("graph: edge %d -> %d appears %+d more times in out-lists than in-lists", e[0], e[1], c)
		}
	}
	return nil
}

// Stats summarizes degree structure; the experiment harness prints these
// next to each dataset (Table 3 reports n and m, §6.1 discusses the
// zero-in-degree share of Wiki-Vote).
type Stats struct {
	Nodes        int
	Edges        int64
	MaxInDegree  int
	MaxOutDegree int
	AvgInDegree  float64
	ZeroInDeg    int // nodes with no in-neighbors
	ZeroOutDeg   int // nodes with no out-neighbors
}

// ComputeStats scans the graph once and returns its Stats.
func (g *Graph) ComputeStats() Stats { return ComputeViewStats(g) }

// ComputeViewStats scans any View once — mutable graph or published
// snapshot, monolithic or sharded — through the devirtualized degree
// accessors and returns its Stats. Read paths (e.g. the HTTP /stats
// endpoint) use it to report structure without touching the mutable
// graph.
func ComputeViewStats(v View) Stats {
	adj := ResolveAdj(v)
	s := Stats{Nodes: v.NumNodes(), Edges: v.NumEdges()}
	for u := 0; u < s.Nodes; u++ {
		din, dout := adj.InDegree(NodeID(u)), adj.OutDegree(NodeID(u))
		if din > s.MaxInDegree {
			s.MaxInDegree = din
		}
		if dout > s.MaxOutDegree {
			s.MaxOutDegree = dout
		}
		if din == 0 {
			s.ZeroInDeg++
		}
		if dout == 0 {
			s.ZeroOutDeg++
		}
	}
	if s.Nodes > 0 {
		s.AvgInDegree = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}
