package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"probesim/internal/graph"
	"probesim/internal/shard"
)

func testGraph(n int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < 4*n; i++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		if u != v {
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

func sameView(t *testing.T, a, b graph.View) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape: (%d,%d) vs (%d,%d)", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		nd := graph.NodeID(v)
		ia, ib := a.InNeighbors(nd), b.InNeighbors(nd)
		oa, ob := a.OutNeighbors(nd), b.OutNeighbors(nd)
		if len(ia) != len(ib) || len(oa) != len(ob) {
			t.Fatalf("node %d: degree mismatch", v)
		}
		for i := range ia {
			if ia[i] != ib[i] {
				t.Fatalf("node %d: in[%d] %d vs %d (order must be preserved)", v, i, ia[i], ib[i])
			}
		}
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("node %d: out[%d] %d vs %d", v, i, oa[i], ob[i])
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		g := testGraph(300, 7)
		st := shard.NewStore(g, shards, 0)
		// Mutate so versions and the watermark are non-trivial.
		ops := []shard.EdgeOp{{U: 0, V: 1}, {U: 5, V: 9}, {Remove: false, U: 17, V: 3}}
		if _, err := st.ApplyBatch(42, ops); err != nil {
			t.Fatal(err)
		}
		snap := st.Publish()

		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		got, err := ReadStore(bytes.NewReader(buf.Bytes()), 0)
		if err != nil {
			t.Fatal(err)
		}
		gsnap := got.Current()
		if err := gsnap.Validate(); err != nil {
			t.Fatal(err)
		}
		if gsnap.Version() != snap.Version() || gsnap.LastBatch() != 42 {
			t.Fatalf("version/batch: %d/%d vs %d/42", gsnap.Version(), gsnap.LastBatch(), snap.Version())
		}
		if got.LastBatch() != 42 {
			t.Fatalf("store watermark %d, want 42", got.LastBatch())
		}
		sameView(t, snap, gsnap)

		// The restored store is live: mutations and publication work, and
		// the apply-once watermark carried over (a replayed batch no-ops).
		if _, err := got.ApplyBatch(42, ops); err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != snap.NumEdges() {
			t.Fatal("replayed batch mutated the restored store")
		}
		if _, err := got.ApplyBatch(43, []shard.EdgeOp{{U: 1, V: 2}}); err != nil {
			t.Fatal(err)
		}
		next := got.Publish()
		if next.NumEdges() != snap.NumEdges()+1 {
			t.Fatalf("edges %d after new batch, want %d", next.NumEdges(), snap.NumEdges()+1)
		}
		if err := next.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadStoreRejectsCorruption(t *testing.T) {
	g := testGraph(100, 3)
	st := shard.NewStore(g, 4, 0)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st.Current()); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	mutations := map[string]func([]byte) []byte{
		"badMagic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"badFormat":  func(b []byte) []byte { b[4] ^= 0xff; return b },
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"trailing":   func(b []byte) []byte { return append(b, 0xde, 0xad) },
		"badShift":   func(b []byte) []byte { b[40] = 0xff; return b },
		"hugeNodes":  func(b []byte) []byte { b[14] = 0xff; return b }, // nodes u64 high bytes
		"badOffsets": func(b []byte) []byte { b[len(b)-40] ^= 0xff; return b },
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			b := mut(append([]byte(nil), clean...))
			if _, err := ReadStore(bytes.NewReader(b), 0); err == nil {
				t.Fatal("corrupt spill accepted")
			}
		})
	}
	// The clean spill still parses (the mutations above copied it).
	if _, err := ReadStore(bytes.NewReader(clean), 0); err != nil {
		t.Fatal(err)
	}
}

func TestReadStoreShortInputNoHugeAlloc(t *testing.T) {
	// A header claiming many shards/entries with no bytes behind it must
	// error on the short read, not allocate first.
	var buf bytes.Buffer
	g := graph.New(64)
	st := shard.NewStore(g, 4, 0)
	if err := WriteSnapshot(&buf, st.Current()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:52] // header + shift/shards + first shard version, then starve it
	if _, err := ReadStore(bytes.NewReader(b), 0); !errors.Is(err, ErrFormat) {
		t.Fatalf("want ErrFormat, got %v", err)
	}
}
