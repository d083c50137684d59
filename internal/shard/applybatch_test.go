package shard

import (
	"slices"
	"testing"

	"probesim/internal/graph"
	"probesim/internal/xrand"
)

func TestApplyBatchAtomicAndIdempotent(t *testing.T) {
	st := NewEmpty(20, 4, 0)
	ops := []EdgeOp{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	if _, err := st.ApplyBatch(5, ops); err != nil {
		t.Fatal(err)
	}
	if st.NumEdges() != 3 || st.LastBatch() != 5 {
		t.Fatalf("edges=%d batch=%d, want 3/5", st.NumEdges(), st.LastBatch())
	}
	// Retry of a decided id: no mutation, no error, same version.
	v := st.Version()
	if got, err := st.ApplyBatch(5, ops); err != nil || got != v {
		t.Fatalf("retry: version %d err %v, want %d/nil", got, err, v)
	}
	if st.NumEdges() != 3 {
		t.Fatal("retry re-applied the batch")
	}
	// Lower ids are also decided (watermark, not a set).
	if _, err := st.ApplyBatch(2, []EdgeOp{{U: 9, V: 8}}); err != nil {
		t.Fatal(err)
	}
	if st.NumEdges() != 3 {
		t.Fatal("stale id mutated the store")
	}
	// id 0 self-assigns the next id.
	if _, err := st.ApplyBatch(0, []EdgeOp{{U: 9, V: 8}}); err != nil {
		t.Fatal(err)
	}
	if st.LastBatch() != 6 || st.NumEdges() != 4 {
		t.Fatalf("self-assign: batch=%d edges=%d, want 6/4", st.LastBatch(), st.NumEdges())
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyBatchRollsBackAndStaysDecided: a rejected batch leaves every
// list, both sides, exactly as a store that never saw it, down to
// neighbour order (walks and probes pick neighbours by position), moves
// the version by two per undone op, and stays decided.
func TestApplyBatchRollsBackAndStaysDecided(t *testing.T) {
	// out(0) = [1 2 3] and in(1) = [0 4 9]: removing 0 -> 1 swaps each
	// list's tail into the slot it leaves.
	g := graph.New(10)
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {0, 3}, {4, 1}, {9, 1}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	st, ref := NewStore(g, 2, 0), NewStore(g, 2, 0)
	for _, s := range []*Store{st, ref} {
		if _, err := s.ApplyBatch(1, []EdgeOp{{U: 1, V: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	id := uint64(1)
	for _, bad := range [][]EdgeOp{
		// A removal, then a self-loop.
		{{Remove: true, U: 0, V: 1}, {U: 5, V: 5}},
		// Adds and removals (one of a parallel edge the batch added),
		// then the removal of an absent edge.
		{{U: 3, V: 4}, {Remove: true, U: 0, V: 1}, {U: 0, V: 2}, {Remove: true, U: 0, V: 2},
			{Remove: true, U: 9, V: 1}, {Remove: true, U: 7, V: 8}},
	} {
		id++
		before := st.Version()
		if _, err := st.ApplyBatch(id, bad); err == nil {
			t.Fatalf("invalid batch %v accepted", bad)
		}
		if want := before + 2*uint64(len(bad)-1); st.Version() != want {
			t.Fatalf("batch %d: version %d after rollback, want %d (apply and undo each count)", id, st.Version(), want)
		}
		// The failed batch is DECIDED: replaying it is a no-op, not a
		// second attempt — recovery replays rejected batches without
		// re-rejecting.
		if st.LastBatch() != id {
			t.Fatalf("watermark %d, want %d (rejected batches advance it)", st.LastBatch(), id)
		}
		if _, err := st.ApplyBatch(id, bad); err != nil {
			t.Fatalf("replay of a decided batch errored: %v", err)
		}
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
		assertViewsMatch(t, ref.Publish(), st.Publish())
	}
	if got := st.Current().OutNeighbors(0); !slices.Equal(got, []graph.NodeID{1, 2, 3}) {
		t.Fatalf("out(0) = %v after the rejected batches, want [1 2 3]", got)
	}

	// Random batches of adds and removals (parallel edges, removals of
	// edges the batch added), each rejected by a final self-loop.
	if err := g.AddEdge(1, 2); err != nil { // g now holds what ref holds
		t.Fatal(err)
	}
	want := ref.Publish()
	rng := xrand.New(3)
	for round := 0; round < 300; round++ {
		sim := g.Clone()
		var bad []EdgeOp
		for k := rng.Intn(8); k > 0; k-- {
			op := EdgeOp{U: graph.NodeID(rng.Intn(10)), V: graph.NodeID(rng.Intn(10))}
			if outs := sim.OutNeighbors(op.U); len(outs) > 0 && rng.Intn(2) == 0 {
				op.Remove, op.V = true, outs[rng.Intn(len(outs))]
				if err := sim.RemoveEdge(op.U, op.V); err != nil {
					t.Fatal(err)
				}
			} else if op.U == op.V {
				continue
			} else if err := sim.AddEdge(op.U, op.V); err != nil {
				t.Fatal(err)
			}
			bad = append(bad, op)
		}
		bad = append(bad, EdgeOp{U: 5, V: 5})
		if _, err := st.ApplyBatch(0, bad); err == nil {
			t.Fatalf("round %d: batch with a self-loop applied", round)
		}
		assertViewsMatch(t, want, st.Publish())
	}
}

// TestRejectionReportsTheLastDecision: the store keeps the decision of
// its last batch for a re-send to read, and only that one.
func TestRejectionReportsTheLastDecision(t *testing.T) {
	st := NewEmpty(10, 2, 0)
	if _, err := st.ApplyBatch(1, []EdgeOp{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Rejection(1); err != nil {
		t.Fatalf("applied batch reports rejection %v", err)
	}
	_, rejected := st.ApplyBatch(2, []EdgeOp{{U: 3, V: 4}, {Remove: true, U: 7, V: 8}})
	if rejected == nil {
		t.Fatal("invalid batch accepted")
	}
	if err := st.Rejection(2); err != rejected {
		t.Fatalf("Rejection(2) = %v, want %v", err, rejected)
	}
	if err := st.Rejection(1); err != nil {
		t.Fatalf("Rejection of an earlier batch = %v, want nil", err)
	}
	if _, err := st.ApplyBatch(3, []EdgeOp{{U: 5, V: 6}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Rejection(2); err != nil {
		t.Fatalf("Rejection(2) = %v once batch 3 is decided, want nil", err)
	}
}

func TestPublishCarriesLastBatch(t *testing.T) {
	st := NewEmpty(16, 4, 0)
	if st.Current().LastBatch() != 0 {
		t.Fatal("fresh snapshot with nonzero watermark")
	}
	st.ApplyBatch(9, []EdgeOp{{U: 0, V: 1}})
	snap := st.Publish()
	if snap.LastBatch() != 9 {
		t.Fatalf("published watermark %d, want 9", snap.LastBatch())
	}
}

// TestSubscribeAppliedFiresOncePerAppliedBatch pins the applied-batch
// contract the result cache follows: through accepted, rejected, retried
// and self-assigned batches, the hook fires exactly once per applied
// batch under that batch's own id, the ids it sees strictly increase,
// Version read inside the hook is the pre-batch version plus len(ops),
// and rejected and retried batches fire nothing.
func TestSubscribeAppliedFiresOncePerAppliedBatch(t *testing.T) {
	st := NewEmpty(10, 4, 0)
	type report struct {
		id, version uint64
		ops         []EdgeOp
	}
	var got []report
	st.SubscribeApplied(func(id uint64, ops []EdgeOp) {
		got = append(got, report{id: id, version: st.Version(), ops: slices.Clone(ops)})
	})
	steps := []struct {
		what   string
		id     uint64
		ops    []EdgeOp
		wantID uint64 // 0: the batch must fire nothing
	}{
		{"accepted", 3, []EdgeOp{{U: 1, V: 2}, {U: 2, V: 3}}, 3},
		{"rejected mid-way", 4, []EdgeOp{{U: 4, V: 5}, {U: 6, V: 7, Remove: true}}, 0},
		{"retry of an applied batch", 3, []EdgeOp{{U: 8, V: 9}}, 0},
		{"retry of a rejected batch", 4, []EdgeOp{{U: 4, V: 5}}, 0},
		{"self-assigned", 0, []EdgeOp{{U: 5, V: 6}}, 5},
		{"accepted past a gap", 9, []EdgeOp{{U: 1, V: 2, Remove: true}, {U: 0, V: 1}, {U: 1, V: 0}}, 9},
		{"self-assigned, rejected", 0, []EdgeOp{{U: 0, V: 0}}, 0},
		{"self-assigned after a rejection", 0, []EdgeOp{{U: 2, V: 1}}, 11},
	}
	for _, c := range steps {
		before, fired := st.Version(), len(got)
		version, err := st.ApplyBatch(c.id, c.ops)
		if c.wantID == 0 {
			if len(got) != fired {
				t.Fatalf("%s: fired %d times, want none", c.what, len(got)-fired)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if len(got) != fired+1 {
			t.Fatalf("%s: fired %d times, want once", c.what, len(got)-fired)
		}
		r := got[fired]
		if r.id != c.wantID || !slices.Equal(r.ops, c.ops) {
			t.Fatalf("%s: reported batch %d %v, want %d %v", c.what, r.id, r.ops, c.wantID, c.ops)
		}
		if want := before + uint64(len(c.ops)); r.version != want || version != want {
			t.Fatalf("%s: Version in the hook %d, ApplyBatch returned %d, want %d", c.what, r.version, version, want)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].id <= got[i-1].id {
			t.Fatalf("reported ids %d then %d, want strictly increasing", got[i-1].id, got[i].id)
		}
	}
}
