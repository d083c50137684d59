package graph

import (
	"context"
	"fmt"

	"probesim/internal/budget"
)

// This file provides the structural algorithms the dataset reports and
// examples use: strongly and weakly connected components, BFS distances,
// induced subgraphs, and degree histograms. They are utilities over the
// adjacency representation, not part of any SimRank algorithm's hot path.

// StronglyConnectedComponents returns, for every node, the id of its
// strongly connected component, plus the component count. It delegates to
// the View-generic implementation; see StronglyConnected.
func (g *Graph) StronglyConnectedComponents() (comp []int32, count int) {
	return StronglyConnected(g)
}

// StronglyConnected returns, for every node of any View (mutable graph or
// published snapshot), the id of its strongly connected component, plus
// the component count. Ids are dense in [0, count) and assigned in
// reverse topological order of the condensation (a property of Tarjan's
// algorithm: a component is numbered only after every component it
// reaches). The implementation is iterative, so deep recursion on
// path-like graphs cannot overflow the stack. Running it on a snapshot
// lets analysis endpoints report structure without ever touching the
// mutable graph or its write lock.
func StronglyConnected(v View) (comp []int32, count int) {
	comp, count, _ = StronglyConnectedCtx(context.Background(), v)
	return comp, count
}

// componentPollInterval is how many DFS expansions (SCC) or source-node
// scans (WCC) pass between deadline/cancellation polls: small
// enough that a scan over a web-scale snapshot honors a deadline within
// microseconds of work, large enough that the meter checkpoint disappears
// into the traversal cost.
const componentPollInterval = 4096

// StronglyConnectedCtx is StronglyConnected under a deadline: the
// traversal checkpoints ctx through the same budget seam the query
// kernels use (one amortized poll every componentPollInterval edge
// expansions), so a component scan on a huge snapshot stops mid-scan when
// the request's deadline passes instead of only observing cancellation
// between requests. A stopped scan returns nil — partial component ids
// are meaningless — together with the cause.
func StronglyConnectedCtx(ctx context.Context, v View) (comp []int32, count int, err error) {
	m := budget.New(ctx, 0, 0, 0)
	cp := budget.NewCheckpoint(m, componentPollInterval)
	adj := ResolveAdj(v)
	n := adj.NumNodes()
	const unvisited = -1
	comp = make([]int32, n)
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for v := range index {
		index[v] = unvisited
		comp[v] = unvisited
	}
	var (
		next  int32 // next DFS index
		stack []int32
		// frame is an explicit DFS frame: node and position within its
		// out-neighbor list.
		frames []frame
	)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{node: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(frames) > 0 {
			if cp.Stop() {
				return nil, 0, fmt.Errorf("graph: component scan stopped: %w", m.Err())
			}
			f := &frames[len(frames)-1]
			out := adj.Out(f.node)
			if f.edge < len(out) {
				w := out[f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Frame finished: close a component if f.node is a root.
			v := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.node] {
					low[p.node] = low[v]
				}
			}
			if low[v] == index[v] {
				id := int32(count)
				count++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					if w == v {
						break
					}
				}
			}
		}
	}
	return comp, count, nil
}

type frame struct {
	node int32
	edge int
}

// WeaklyConnectedComponents returns, for every node, the id of its weakly
// connected component. It delegates to the View-generic implementation;
// see WeaklyConnected.
func (g *Graph) WeaklyConnectedComponents() (comp []int32, count int) {
	return WeaklyConnected(g)
}

// WeaklyConnected returns, for every node of any View, the id of its
// weakly connected component (edge direction ignored), plus the component
// count. Ids are dense in [0, count), ordered by smallest member node.
func WeaklyConnected(v View) (comp []int32, count int) {
	comp, count, _ = WeaklyConnectedCtx(context.Background(), v)
	return comp, count
}

// WeaklyConnectedCtx is WeaklyConnected under a deadline, with the same
// mid-scan cancellation contract as StronglyConnectedCtx.
func WeaklyConnectedCtx(ctx context.Context, v View) (comp []int32, count int, err error) {
	m := budget.New(ctx, 0, 0, 0)
	cp := budget.NewCheckpoint(m, componentPollInterval)
	adj := ResolveAdj(v)
	n := adj.NumNodes()
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // attach to smaller id for stable numbering
		}
	}
	for u := 0; u < n; u++ {
		if cp.Stop() {
			return nil, 0, fmt.Errorf("graph: component scan stopped: %w", m.Err())
		}
		for _, w := range adj.Out(NodeID(u)) {
			union(int32(u), w)
		}
	}
	comp = make([]int32, n)
	ids := make(map[int32]int32)
	for v := 0; v < n; v++ {
		root := find(int32(v))
		id, ok := ids[root]
		if !ok {
			id = int32(len(ids))
			ids[root] = id
		}
		comp[v] = id
	}
	return comp, len(ids), nil
}

// BFS returns hop distances from u, following out-edges (reverse = false)
// or in-edges (reverse = true). Unreachable nodes get -1.
func (g *Graph) BFS(u NodeID, reverse bool) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for v := range dist {
		dist[v] = -1
	}
	if u < 0 || int(u) >= n {
		return dist
	}
	adj := g.out
	if reverse {
		adj = g.in
	}
	dist[u] = 0
	queue := []NodeID{u}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// InducedSubgraph returns the subgraph on the given nodes (edges with both
// endpoints in the set), with nodes renumbered densely in input order, plus
// the mapping from new id to original id. Duplicate input nodes are an
// error via the mapping check below.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, []NodeID, error) {
	remap := make(map[NodeID]NodeID, len(nodes))
	orig := make([]NodeID, len(nodes))
	for i, v := range nodes {
		if err := g.checkNode(v); err != nil {
			return nil, nil, err
		}
		if _, dup := remap[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate node %d in induced subgraph", v)
		}
		remap[v] = NodeID(i)
		orig[i] = v
	}
	sub := New(len(nodes))
	for i, v := range orig {
		for _, w := range g.out[v] {
			if j, ok := remap[w]; ok {
				if err := sub.AddEdge(NodeID(i), j); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return sub, orig, nil
}

// DegreeHistogram returns counts[d] = number of nodes with the given
// degree, for in-degrees (in = true) or out-degrees. The slice length is
// max degree + 1.
func (g *Graph) DegreeHistogram(in bool) []int64 {
	adj := g.out
	if in {
		adj = g.in
	}
	maxDeg := 0
	for _, l := range adj {
		if len(l) > maxDeg {
			maxDeg = len(l)
		}
	}
	counts := make([]int64, maxDeg+1)
	for _, l := range adj {
		counts[len(l)]++
	}
	return counts
}
