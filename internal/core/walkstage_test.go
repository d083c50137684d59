package core

import (
	"context"
	"fmt"
	"testing"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/walk"
	"probesim/internal/xrand"
)

// serialTree builds the walk tree the way a single goroutine would: each
// trial's walk from its own stream through walk.Segment, inserted in
// trial order.
func serialTree(g graph.View, u graph.NodeID, plan Plan) *WalkTree {
	adj := graph.ResolveAdj(g)
	root := xrand.New(plan.Seed)
	tree := NewWalkTree(u)
	var rng xrand.RNG
	buf := []graph.NodeID{u}
	for t := 0; t < plan.NumWalks; t++ {
		rng.SetState(root.SplitState(walkStreamBase + uint64(t)))
		buf = walk.Segment(&adj, u, plan.MaxWalkNodes-1, plan.SqrtC, &rng, buf[:1])
		if err := tree.Insert(buf); err != nil {
			panic(err)
		}
	}
	return tree
}

// workerTree builds the tree with the kernel's own walk stage on w
// workers, charging a live meter, and returns it with the walks charged.
func workerTree(g graph.View, u graph.NodeID, plan Plan, w int) (*WalkTree, int64, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := budget.New(ctx, 0, 0, 0)
	scs := make([]*queryScratch, w)
	for i := range scs {
		scs[i] = pool.get(g.NumNodes())
	}
	tree := buildTree(g, u, plan, m, xrand.New(plan.Seed), scs)
	return tree, m.Walks(), func() {
		for _, sc := range scs {
			pool.put(sc)
		}
	}
}

// sameTree reports the first difference between two trees' path
// enumerations (order, nodes and weights) and their arrays.
func sameTree(got, want *WalkTree) error {
	if got.Walks() != want.Walks() || got.Len() != want.Len() {
		return fmt.Errorf("%d walks / %d nodes, want %d / %d", got.Walks(), got.Len(), want.Walks(), want.Len())
	}
	gp, _ := got.AppendPaths(nil, nil)
	wp, _ := want.AppendPaths(nil, nil)
	if len(gp) != len(wp) {
		return fmt.Errorf("%d paths, want %d", len(gp), len(wp))
	}
	for i := range wp {
		if gp[i].Weight != wp[i].Weight || pathKey(gp[i].Nodes) != pathKey(wp[i].Nodes) {
			return fmt.Errorf("path %d: %v weight %d, want %v weight %d", i, gp[i].Nodes, gp[i].Weight, wp[i].Nodes, wp[i].Weight)
		}
	}
	for i := range want.node {
		if got.node[i] != want.node[i] || got.weight[i] != want.weight[i] || got.parent[i] != want.parent[i] ||
			got.firstChild[i] != want.firstChild[i] || got.nextSibling[i] != want.nextSibling[i] {
			return fmt.Errorf("tree node %d differs", i)
		}
	}
	return nil
}

func checkWorkerTrees(t *testing.T, g graph.View, u graph.NodeID, plan Plan) *WalkTree {
	t.Helper()
	want := serialTree(g, u, plan)
	if err := want.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 4, 7} {
		got, walks, release := workerTree(g, u, plan, w)
		if err := sameTree(got, want); err != nil {
			t.Fatalf("source %d, %d workers: %v", u, w, err)
		}
		if walks != int64(plan.NumWalks) {
			t.Fatalf("source %d, %d workers: meter charged %d walks, want %d", u, w, walks, plan.NumWalks)
		}
		release()
	}
	return want
}

// TestWalkStageMergeMatchesSerialInsert: on random graphs, the trees W
// workers draw over contiguous trial ranges, merged in worker order, are
// the tree serial insertion of the same trial streams builds, so they
// enumerate the same paths in the same order with the same weights.
func TestWalkStageMergeMatchesSerialInsert(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(60)
		g := randomGraph(rng, n, n*(2+rng.Intn(6)))
		plan := planFor(Options{Seed: rng.Uint64(), NumWalks: 1 + rng.Intn(900)}.withDefaults(), n)
		checkWorkerTrees(t, g, graph.NodeID(rng.Intn(n)), plan)
	}
}

// TestWalkStageHubSourceMatchesSerialInsert is the same check on a hub
// source whose tree root has hundreds of children, where sibling order
// and child lookup do the most work.
func TestWalkStageHubSourceMatchesSerialInsert(t *testing.T) {
	const n = 600
	rng := xrand.New(99)
	g := randomGraph(rng, n, 3*n)
	for v := 1; v < n; v++ {
		_ = g.AddEdge(graph.NodeID(v), 0)
	}
	plan := planFor(Options{Seed: 5, NumWalks: 4000}.withDefaults(), n)
	tree := checkWorkerTrees(t, g, 0, plan)
	children := 0
	for c := tree.firstChild[0]; c >= 0; c = tree.nextSibling[c] {
		children++
	}
	if children < 100 {
		t.Fatalf("hub root has %d children, want at least 100", children)
	}
}

// TestWalkStageDrawConsumesSegmentDraws: the fused tree loop (Draw) and
// walk.Segment step through the same rule, so from equal streams they
// consume identical draws and Draw leaves the tree Insert of Segment's
// walk leaves.
func TestWalkStageDrawConsumesSegmentDraws(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(40)
		g := randomGraph(rng, n, n*(1+rng.Intn(5)))
		adj := graph.ResolveAdj(g)
		u := graph.NodeID(rng.Intn(n))
		room := 1 + rng.Intn(12)
		sqrtC := 0.5 + 0.45*rng.Float64()
		drawn, inserted := NewWalkTree(u), NewWalkTree(u)
		var a, b xrand.RNG
		var buf []graph.NodeID
		for i := 0; i < 200; i++ {
			st := rng.Uint64()
			a.SetState(st)
			b.SetState(st)
			buf = walk.Segment(&adj, u, room, sqrtC, &a, append(buf[:0], u))
			if err := inserted.Insert(buf); err != nil {
				t.Fatal(err)
			}
			drawn.Draw(&adj, room, sqrtC, &b)
			if a.State() != b.State() {
				t.Fatalf("trial %d walk %d: Draw left stream state %x, Segment %x", trial, i, b.State(), a.State())
			}
		}
		if err := sameTree(drawn, inserted); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
