package shard

import (
	"slices"
	"testing"

	"probesim/internal/graph"
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

func TestApplyBatchRollsBackAndStaysDecided(t *testing.T) {
	st := NewEmpty(10, 2, 0)
	if _, err := st.ApplyBatch(1, []EdgeOp{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	// Op 2 fails (removing an absent edge): the applied prefix rolls back.
	bad := []EdgeOp{{U: 3, V: 4}, {Remove: true, U: 7, V: 8}}
	if _, err := st.ApplyBatch(2, bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if st.NumEdges() != 1 {
		t.Fatalf("edges=%d after rollback, want 1", st.NumEdges())
	}
	// The failed batch is DECIDED: replaying it is a no-op, not a second
	// attempt — recovery replays rejected batches without re-rejecting.
	if st.LastBatch() != 2 {
		t.Fatalf("watermark %d, want 2 (rejected batches advance it)", st.LastBatch())
	}
	if _, err := st.ApplyBatch(2, bad); err != nil {
		t.Fatalf("replay of a decided batch errored: %v", err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	// Neighbor order after rollback matches a store that never saw the
	// batch (the remove op's swap-with-tail discipline).
	ref := NewEmpty(10, 2, 0)
	if _, err := ref.ApplyBatch(0, []EdgeOp{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	got, want := st.Publish(), ref.Publish()
	for v := 0; v < 10; v++ {
		nd := graph.NodeID(v)
		a, b := got.OutNeighbors(nd), want.OutNeighbors(nd)
		if len(a) != len(b) {
			t.Fatalf("node %d: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d: %v vs %v", v, a, b)
			}
		}
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
