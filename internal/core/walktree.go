package core

import (
	"fmt"

	"probesim/internal/graph"
	"probesim/internal/walk"
	"probesim/internal/xrand"
)

// WalkTree is the reverse-reachability tree of §4.2 (Algorithm 3): a
// compact trie over the nr √c-walks of a query. Each tree node stores a
// graph node and the number of walks sharing the root-to-node prefix, so
// that a shared prefix is probed once and its scores weighted by the count.
//
// Tree nodes are numbered in creation order, so a node's parent always
// has a smaller index, and a new child is pushed to the front of its
// parent's sibling list. The structure, and with it the path order
// AppendPaths enumerates, is therefore a function of the walks' order
// alone, which is what lets Merge rebuild a serially built tree exactly
// from trees built over consecutive runs of walks.
type WalkTree struct {
	node        []graph.NodeID
	weight      []int64
	parent      []int32
	firstChild  []int32
	nextSibling []int32
	walks       int64
	pathBuf     []graph.NodeID // reusable DFS stack for AppendPaths
	remap       []int32        // reusable src-to-tree index map for Merge
}

// NewWalkTree returns a tree whose root holds the query node u with weight
// zero (the root accumulates one weight unit per inserted walk, matching
// Algorithm 3 line 2).
func NewWalkTree(u graph.NodeID) *WalkTree {
	return &WalkTree{
		node:        []graph.NodeID{u},
		weight:      []int64{0},
		parent:      []int32{-1},
		firstChild:  []int32{-1},
		nextSibling: []int32{-1},
	}
}

// Reset re-roots the tree at u and discards every inserted walk while
// keeping the backing arrays, so a pooled tree reaches steady state with
// no per-query tree allocation (the remaining batch-mode hot spot after
// the PR 1 scratch pooling).
func (t *WalkTree) Reset(u graph.NodeID) {
	t.node = append(t.node[:0], u)
	t.weight = append(t.weight[:0], 0)
	t.parent = append(t.parent[:0], -1)
	t.firstChild = append(t.firstChild[:0], -1)
	t.nextSibling = append(t.nextSibling[:0], -1)
	t.walks = 0
}

// Insert adds one √c-walk (w[0] must be the root's node) to the tree,
// incrementing the weight of every prefix it shares and creating new tree
// nodes for the novel suffix.
func (t *WalkTree) Insert(w []graph.NodeID) error {
	if len(w) == 0 || w[0] != t.node[0] {
		return fmt.Errorf("core: walk %v does not start at the tree root %d", w, t.node[0])
	}
	t.walks++
	t.weight[0]++
	cur := int32(0)
	for _, g := range w[1:] {
		cur = t.child(cur, g)
		t.weight[cur]++
	}
	return nil
}

// Draw draws one √c-walk from the root with at most room steps from rng,
// through walk.Step, and inserts each step as it is drawn. It consumes
// exactly the draws walk.Segment(adj, root, room, sqrtC, rng, ...) does,
// and leaves the tree as Insert of that walk would.
func (t *WalkTree) Draw(adj *graph.Adj, room int, sqrtC float64, rng *xrand.RNG) {
	t.walks++
	t.weight[0]++
	cur, g := int32(0), t.node[0]
	for ; room > 0; room-- {
		next, ok := walk.Step(adj, g, sqrtC, rng)
		if !ok {
			return
		}
		cur, g = t.child(cur, next), next
		t.weight[cur]++
	}
}

// Merge adds src's walks to t as if they had been inserted after t's
// own, in their order. src must have t's root. Visiting src's nodes in
// creation order meets each prefix's first appearance in the order
// inserting src's walks would, so the merged tree equals the one serial
// insertion builds node for node: the same indices, sibling order and
// weights.
func (t *WalkTree) Merge(src *WalkTree) {
	t.walks += src.walks
	t.weight[0] += src.weight[0]
	remap := append(t.remap[:0], 0)
	for i := 1; i < len(src.node); i++ {
		c := t.child(remap[src.parent[i]], src.node[i])
		t.weight[c] += src.weight[i]
		remap = append(remap, c)
	}
	t.remap = remap
}

// child returns parent's child holding g, creating it if needed.
func (t *WalkTree) child(parent int32, g graph.NodeID) int32 {
	if c := t.findChild(parent, g); c >= 0 {
		return c
	}
	return t.addChild(parent, g)
}

func (t *WalkTree) findChild(parent int32, g graph.NodeID) int32 {
	for c := t.firstChild[parent]; c >= 0; c = t.nextSibling[c] {
		if t.node[c] == g {
			return c
		}
	}
	return -1
}

func (t *WalkTree) addChild(parent int32, g graph.NodeID) int32 {
	id := int32(len(t.node))
	t.node = append(t.node, g)
	t.weight = append(t.weight, 0)
	t.parent = append(t.parent, parent)
	t.firstChild = append(t.firstChild, -1)
	t.nextSibling = append(t.nextSibling, t.firstChild[parent])
	t.firstChild[parent] = id
	return id
}

// Walks returns the number of inserted walks (nr).
func (t *WalkTree) Walks() int64 { return t.walks }

// Len returns the number of tree nodes including the root.
func (t *WalkTree) Len() int { return len(t.node) }

// Path is one root-to-node path of the tree: a partial √c-walk shared by
// Weight of the inserted walks. Nodes includes the root, so len >= 2.
type Path struct {
	Nodes  []graph.NodeID
	Weight int64
}

// Paths enumerates every root-to-node path of length >= 2 in depth-first
// order (Algorithm 3 lines 11-14 apply PROBE to each). The returned paths
// own their storage.
func (t *WalkTree) Paths() []Path {
	var out []Path
	var buf []graph.NodeID
	var dfs func(n int32)
	dfs = func(n int32) {
		buf = append(buf, t.node[n])
		if len(buf) >= 2 {
			out = append(out, Path{
				Nodes:  append([]graph.NodeID(nil), buf...),
				Weight: t.weight[n],
			})
		}
		for c := t.firstChild[n]; c >= 0; c = t.nextSibling[c] {
			dfs(c)
		}
		buf = buf[:len(buf)-1]
	}
	dfs(0)
	return out
}

// AppendPaths is the pooled variant of Paths: it appends the same paths
// (same order, same contents) to dst, packing each path's nodes into a
// disjoint region of the shared arena. Both slices are grown as needed
// and returned for reuse; at steady state the enumeration allocates
// nothing. The returned paths alias the arena and are valid until the
// arena's next reuse, so callers must consume them before recycling
// (runBatched does: paths die with the query).
func (t *WalkTree) AppendPaths(dst []Path, arena []graph.NodeID) ([]Path, []graph.NodeID) {
	t.pathBuf = t.pathBuf[:0]
	var dfs func(n int32)
	dfs = func(n int32) {
		t.pathBuf = append(t.pathBuf, t.node[n])
		if len(t.pathBuf) >= 2 {
			start := len(arena)
			arena = append(arena, t.pathBuf...)
			dst = append(dst, Path{
				Nodes:  arena[start:len(arena):len(arena)],
				Weight: t.weight[n],
			})
		}
		for c := t.firstChild[n]; c >= 0; c = t.nextSibling[c] {
			dfs(c)
		}
		t.pathBuf = t.pathBuf[:len(t.pathBuf)-1]
	}
	dfs(0)
	return dst, arena
}

// checkInvariants verifies that every parent's weight is at least the sum
// of its children's weights (walks may end at the parent) and that the
// root's weight equals the number of inserted walks. Used by tests.
func (t *WalkTree) checkInvariants() error {
	if t.weight[0] != t.walks {
		return fmt.Errorf("core: root weight %d != inserted walks %d", t.weight[0], t.walks)
	}
	for n := range t.node {
		var childSum int64
		for c := t.firstChild[n]; c >= 0; c = t.nextSibling[c] {
			childSum += t.weight[c]
		}
		if childSum > t.weight[n] {
			return fmt.Errorf("core: node %d weight %d < children sum %d", n, t.weight[n], childSum)
		}
	}
	return nil
}
