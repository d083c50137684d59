package qtrace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDStringParseRoundTrip(t *testing.T) {
	id := TraceID{Hi: 0xDEADBEEF01234567, Lo: 0x89ABCDEF00000001}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("id %q not 32 hex digits", s)
	}
	got, ok := ParseID(s)
	if !ok || got != id {
		t.Fatalf("round trip: %v %v", got, ok)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("g", 32), s[:31]} {
		if _, ok := ParseID(bad); ok {
			t.Fatalf("ParseID accepted %q", bad)
		}
	}
	if NewID().IsZero() {
		t.Fatal("NewID drew the zero id")
	}
}

// Every method must be a no-op on a nil trace — the unsampled hot path's
// whole contract.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	ref := tr.StartSpan("x", 0)
	if ref != 0 {
		t.Fatalf("nil StartSpan ref %d", ref)
	}
	tr.EndSpan(ref)
	tr.EndSpanAnnot(ref, "a=b")
	tr.Annotate(ref, "a=b")
	tr.AddStage(StageWalk, time.Second)
	tr.AddProbeLevels(3)
	tr.Graft(0, []Span{{ID: 1, Name: "w"}}, 0, "worker=x")
	tr.SetForced()
	if tr.Forced() || tr.Dropped() != 0 || tr.ProbeLevels() != 0 ||
		tr.Snapshot() != nil || !tr.ID().IsZero() || tr.Since() != 0 {
		t.Fatal("nil trace reported state")
	}
	if tot := tr.StageTotals(); tot[StageWalk].N != 0 {
		t.Fatal("nil trace accumulated a stage")
	}
	// And a nil trace must not enter the context.
	ctx := NewContext(context.Background(), nil, 0)
	if got, _ := FromContext(ctx); got != nil {
		t.Fatal("nil trace entered the context")
	}
	if c2 := ContextWithSpan(ctx, 7); c2 != ctx {
		t.Fatal("ContextWithSpan allocated on a traceless context")
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := New(NewID())
	root := tr.StartSpan("root", 0)
	child := tr.StartSpan("child", root)
	tr.Annotate(child, "k=v")
	tr.EndSpanAnnot(child, "outcome=ok")
	tr.EndSpan(root)
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	r, c := spans[0], spans[1]
	if r.Name != "root" || r.Parent != 0 || c.Name != "child" || c.Parent != uint32(root) {
		t.Fatalf("tree wrong: %+v", spans)
	}
	if c.Attrs != "k=v,outcome=ok" {
		t.Fatalf("attrs %q", c.Attrs)
	}
	if r.End == 0 || c.End == 0 || c.End < c.Start {
		t.Fatalf("timings wrong: %+v", spans)
	}
	// Closing twice keeps the first end; annotating after close appends.
	firstEnd := spans[1].End
	tr.EndSpanAnnot(child, "late=1")
	if got := tr.Snapshot()[1]; got.End != firstEnd || !strings.HasSuffix(got.Attrs, "late=1") {
		t.Fatalf("double close: %+v", got)
	}
}

func TestSnapshotMarksOpenSpans(t *testing.T) {
	tr := New(NewID())
	tr.StartSpan("never-closed", 0)
	s := tr.Snapshot()[0]
	if s.End == 0 || !strings.Contains(s.Attrs, "open") {
		t.Fatalf("open span not closed in snapshot: %+v", s)
	}
	// The trace itself still holds the span open.
	if tr.Snapshot()[0].End == 0 {
		t.Fatal("second snapshot lost the open marker")
	}
}

func TestMaxSpansCapCountsDropped(t *testing.T) {
	tr := New(NewID())
	for i := 0; i < MaxSpans+10; i++ {
		tr.StartSpan("s", 0)
	}
	if n := len(tr.Snapshot()); n != MaxSpans {
		t.Fatalf("slab grew past the cap: %d", n)
	}
	if d := tr.Dropped(); d != 10 {
		t.Fatalf("dropped %d, want 10", d)
	}
	// Refs past the cap are 0 and inert.
	if ref := tr.StartSpan("over", 0); ref != 0 {
		t.Fatalf("over-cap ref %d", ref)
	}
}

func TestGraftRemapsAndRebases(t *testing.T) {
	tr := New(NewID())
	rpc := tr.StartSpan("rpc.walkbatch", 0)
	worker := []Span{
		{ID: 1, Parent: 0, Name: "worker.walk_batch", Start: 0, End: 5 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "walk.steps", Start: time.Millisecond, End: 4 * time.Millisecond, Attrs: "n=3"},
	}
	base := 10 * time.Millisecond
	tr.Graft(rpc, worker, base, "worker=1.2.3.4:9")
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	g0, g1 := spans[1], spans[2]
	if g0.Parent != uint32(rpc) {
		t.Fatalf("grafted root parent %d, want the rpc span %d", g0.Parent, rpc)
	}
	if !strings.Contains(g0.Attrs, "worker=1.2.3.4:9") {
		t.Fatalf("grafted root missing worker label: %q", g0.Attrs)
	}
	if g1.Parent != g0.ID {
		t.Fatalf("internal link broken: child parent %d, root id %d", g1.Parent, g0.ID)
	}
	if strings.Contains(g1.Attrs, "worker=") {
		t.Fatalf("non-root grafted span got the worker label: %q", g1.Attrs)
	}
	if g0.Start != base || g0.End != base+5*time.Millisecond {
		t.Fatalf("rebase wrong: %+v", g0)
	}
}

func TestStageAggregatesConcurrently(t *testing.T) {
	tr := New(NewID())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.AddStage(StageWalk, time.Microsecond)
				tr.AddStage(StageProbe, 2*time.Microsecond)
				tr.AddProbeLevels(1)
			}
		}()
	}
	wg.Wait()
	tot := tr.StageTotals()
	if tot[StageWalk].N != 800 || tot[StageWalk].NS != 800*int64(time.Microsecond) {
		t.Fatalf("walk totals %+v", tot[StageWalk])
	}
	if tot[StageProbe].N != 800 || tot[StageProbe].NS != 1600*int64(time.Microsecond) {
		t.Fatalf("probe totals %+v", tot[StageProbe])
	}
	if tr.ProbeLevels() != 800 {
		t.Fatalf("probe levels %d", tr.ProbeLevels())
	}
}

func TestContextCarriesTraceAndParent(t *testing.T) {
	tr := New(NewID())
	root := tr.StartSpan("root", 0)
	ctx := NewContext(context.Background(), tr, root)
	got, parent := FromContext(ctx)
	if got != tr || parent != root {
		t.Fatalf("FromContext: %v %v", got, parent)
	}
	child := tr.StartSpan("child", parent)
	ctx2 := ContextWithSpan(ctx, child)
	if _, p2 := FromContext(ctx2); p2 != child {
		t.Fatalf("re-parent lost: %v", p2)
	}
	if _, p := FromContext(ctx); p != root {
		t.Fatal("re-parenting mutated the original context")
	}
}

func TestSpanJSONShape(t *testing.T) {
	b, err := json.Marshal(Span{ID: 2, Parent: 1, Name: "kernel", Start: time.Millisecond, End: 3 * time.Millisecond, Attrs: "mode=1"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["name"] != "kernel" || m["start_us"] != 1000.0 || m["dur_us"] != 2000.0 || m["attrs"] != "mode=1" {
		t.Fatalf("span JSON: %v", m)
	}
}
