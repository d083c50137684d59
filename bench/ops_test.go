package main

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"probesim/internal/gen"
	"probesim/internal/graph"
)

// encodeOps serializes the first n ops of a fresh stream.
func encodeOps(t *testing.T, seed uint64, n int) []byte {
	t.Helper()
	g := gen.PreferentialAttachment(500, 4, 1)
	s := newStream(mix{WriteFrac: 0.1, Zipf: 1.5}, seed, g)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if err := binary.Write(&buf, binary.LittleEndian, s.next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := encodeOps(t, 1, 2000), encodeOps(t, 1, 2000)
	if !bytes.Equal(a, b) {
		t.Fatal("two streams from seed 1 differ")
	}
	if bytes.Equal(a, encodeOps(t, 7, 2000)) {
		t.Fatal("seeds 1 and 7 gave the same stream")
	}
}

func TestReadsQueryNodesWithInNeighbours(t *testing.T) {
	g := gen.PreferentialAttachment(500, 4, 1)
	for _, m := range []mix{{}, {Zipf: 1.5}} {
		s := newStream(m, 3, g)
		for i := 0; i < 2000; i++ {
			if u := s.next().U; g.InDegree(graph.NodeID(u)) == 0 {
				t.Fatalf("zipf %v: read of node %d, which has no in-neighbours", m.Zipf, u)
			}
		}
	}
}

// TestChurnIsNetZero applies a write-heavy stream and its drain to a graph:
// no add may hit an existing edge or a self-loop, no remove may miss, and
// afterwards every adjacency list must equal the original, in order.
func TestChurnIsNetZero(t *testing.T) {
	g := gen.PreferentialAttachment(300, 4, 2)
	orig := gen.PreferentialAttachment(300, 4, 2)
	s := newStream(mix{WriteFrac: 0.5}, 5, orig)
	apply := func(o op) {
		for _, e := range o.Edges {
			u, v := graph.NodeID(e.U), graph.NodeID(e.V)
			if o.Remove {
				if err := g.RemoveEdge(u, v); err != nil {
					t.Fatalf("remove %d->%d: %v", u, v, err)
				}
				continue
			}
			if u == v || g.HasEdge(u, v) {
				t.Fatalf("add %d->%d is a self-loop or an existing edge", u, v)
			}
			if err := g.AddEdge(u, v); err != nil {
				t.Fatalf("add %d->%d: %v", u, v, err)
			}
		}
	}
	writes := 0
	for i := 0; i < 5000; i++ {
		if o := s.next(); o.Kind == opWrite {
			apply(o)
			writes++
		}
	}
	if writes < 2000 {
		t.Fatalf("only %d writes in 5000 ops at a 0.5 write share", writes)
	}
	for _, o := range s.drain() {
		apply(o)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if !slices.Equal(g.OutNeighbors(v), orig.OutNeighbors(v)) || !slices.Equal(g.InNeighbors(v), orig.InNeighbors(v)) {
			t.Fatalf("node %d: adjacency differs from the base graph after the drain", v)
		}
	}
}
