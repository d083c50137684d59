package hotidx

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"probesim/internal/core"
	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
)

// testOpt is the option set of the executor that serves both the "live"
// queries and the tier's builds in these tests. Workers is pinned so the
// bit-identity assertions below compare like with like even though
// kernel results are documented worker-count independent.
func testOpt() core.Options {
	return core.Options{EpsA: 0.2, Seed: 1, Workers: 2}
}

// newQuerier builds the answer store a tier pins in over src: a
// Querier on an executor with testOpt.
func newQuerier(src core.SnapshotProvider) *core.Querier {
	return core.NewQuerierOn(core.NewExecutorOn(src, testOpt()), 64)
}

// newTierOver builds a sharded store + executor + Querier + tier wired
// the way the server wires them, with a fast reconcile cadence and a
// generous build budget (the budget must not trip: a stopped build is
// discarded by design, which would turn these tests into timing
// lotteries).
func newTierOver(t *testing.T, g *graph.Graph, cfg Config) (*shard.Store, *core.Executor, *Tier) {
	t.Helper()
	st := shard.NewStore(g, 8, 0)
	q := newQuerier(st)
	st.SubscribeApplied(q.Follow(st.Version))
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = 4
	}
	if cfg.RefreshBudget.IsZero() {
		cfg.RefreshBudget = core.Budget{Timeout: 5 * time.Second}
	}
	if cfg.MinHits == 0 {
		cfg.MinHits = 1
	}
	if cfg.Interval == 0 {
		cfg.Interval = 2 * time.Millisecond
	}
	tier := New(q, cfg)
	t.Cleanup(tier.Close)
	return st, q.Executor(), tier
}

// pinned reports whether the tier's Querier holds a pinned answer for
// src that serves the published snapshot, without touching the sketch or
// the tier's counters.
func pinned(tier *Tier, src graph.NodeID) bool {
	_, ok := tier.q.Pinned(tier.q.Executor().Snapshot(), src)
	return ok
}

// waitHot polls until the tier serves src from the index, returning the
// served answer as a dense vector. Polling goes through SingleSource, so
// the polls also keep the source hot in the sketch.
func waitHot(t *testing.T, tier *Tier, ex *core.Executor, src graph.NodeID) []float64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if r, ok := tier.SingleSource(ex.Snapshot(), src); ok {
			return r.Dense()
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("source %d never became hot: %+v", src, tier.Stats())
	return nil
}

func assertBitIdentical(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs live %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: scores[%d] = %v from index, %v live — hot tier must be bit-identical", label, i, got[i], want[i])
		}
	}
}

func TestTierServesBitIdenticalScores(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 11)
	_, ex, tier := newTierOver(t, g, Config{})

	const src = graph.NodeID(7)
	tier.Touch(src)
	got := waitHot(t, tier, ex, src)

	want, err := core.SingleSource(context.Background(), ex.Snapshot(), src, testOpt())
	if err != nil {
		t.Fatalf("live kernel: %v", err)
	}
	assertBitIdentical(t, got, want, "hot entry")

	st := tier.Stats()
	if st.Hits < 1 || st.Builds < 1 {
		t.Fatalf("counters did not move: %+v", st)
	}
}

func TestTierInvalidatesOnTouchingBatchAndRebuilds(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 13)
	var hold atomic.Bool
	st, ex, tier := newTierOver(t, g, Config{Yield: hold.Load})

	const src = graph.NodeID(5)
	tier.Touch(src)
	waitHot(t, tier, ex, src)

	// Write an edge into the source: every build reads the source's
	// in-list, so this batch must invalidate the entry. The refresher is
	// held off until the check below, or the batch's wake-up could rebuild
	// the entry before the test looks for its absence.
	hold.Store(true)
	if _, err := st.ApplyBatch(0, []shard.EdgeOp{{U: 399, V: src}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	ex.Refresh()

	if pinned(tier, src) {
		t.Fatal("entry survived a batch touching its own shard")
	}
	if s := tier.Stats(); s.Invalidations < 1 {
		t.Fatalf("no invalidation recorded: %+v", s)
	}
	hold.Store(false)

	// The refresher rebuilds against the NEW snapshot; the served answer
	// must match the live kernel on that snapshot, not the old one.
	got := waitHot(t, tier, ex, src)
	want, err := core.SingleSource(context.Background(), ex.Snapshot(), src, testOpt())
	if err != nil {
		t.Fatalf("live kernel: %v", err)
	}
	assertBitIdentical(t, got, want, "rebuilt entry")
}

// TestTierEntrySurvivesUnrelatedBatch is the dependency-set payoff: a
// write to a shard the entry's walks never touched must NOT invalidate
// it. The graph is two disconnected components aligned to shard strides,
// so the dependency set of a component-A source provably excludes
// component B's buckets.
func TestTierEntrySurvivesUnrelatedBatch(t *testing.T) {
	const n = 256 // 8 shards -> stride 32: component A = [0,32), B = [32,64)
	g := graph.New(n)
	for i := 0; i < 31; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		g.AddEdge(graph.NodeID(i+1), graph.NodeID(i))
	}
	for i := 32; i < 63; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	st, ex, tier := newTierOver(t, g, Config{})

	const src = graph.NodeID(3)
	tier.Touch(src)
	before := waitHot(t, tier, ex, src)

	// A component-B-only batch: touches bucket 1, never bucket 0.
	if _, err := st.ApplyBatch(0, []shard.EdgeOp{{U: 40, V: 55}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	ex.Refresh()

	after, ok := tier.SingleSource(ex.Snapshot(), src)
	if !ok {
		t.Fatalf("entry for %d was invalidated by a batch outside its dependency set: %+v", src, tier.Stats())
	}
	assertBitIdentical(t, after.Dense(), before, "surviving entry")
}

// TestTierYieldBlocksRebuildAndBoundsLag drives the foreground-pressure
// seam deterministically: with Yield pinned true the refresher may never
// build, so an invalidated entry stays dirty and the exported staleness
// bound (LagBatches) is non-zero until the pressure lifts.
func TestTierYieldBlocksRebuildAndBoundsLag(t *testing.T) {
	g := gen.PreferentialAttachment(300, 4, 19)
	var pressure atomic.Bool
	st, ex, tier := newTierOver(t, g, Config{Yield: func() bool { return pressure.Load() }})

	const src = graph.NodeID(9)
	tier.Touch(src)
	waitHot(t, tier, ex, src)

	pressure.Store(true)
	if _, err := st.ApplyBatch(0, []shard.EdgeOp{{U: src, V: 299}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	ex.Refresh()

	// Give the refresher a few rounds to (not) rebuild.
	deadline := time.Now().Add(5 * time.Second)
	for tier.Stats().Yields == 0 && time.Now().Before(deadline) {
		tier.Touch(src)
		time.Sleep(2 * time.Millisecond)
	}
	s := tier.Stats()
	if s.Yields == 0 {
		t.Fatalf("refresher never yielded under pinned pressure: %+v", s)
	}
	if s.StaleEntries == 0 || s.LagBatches == 0 {
		t.Fatalf("invalidated entry not reported as stale while rebuilds yield: %+v", s)
	}
	if _, ok := tier.SingleSource(ex.Snapshot(), src); ok {
		t.Fatal("stale entry served while rebuild is blocked")
	}

	// Lift the pressure: the rebuild lands and the lag drains to zero.
	pressure.Store(false)
	waitHot(t, tier, ex, src)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := tier.Stats(); s.StaleEntries == 0 && s.LagBatches == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("staleness never drained after pressure lifted: %+v", tier.Stats())
}

// TestTierEvictsColdSources pins the sketch-driven working set: with
// MaxEntries 1 and MinHits 1, a hotter source displaces the current
// resident and the eviction counter moves.
func TestTierEvictsColdSources(t *testing.T) {
	g := gen.PreferentialAttachment(300, 4, 23)
	_, ex, tier := newTierOver(t, g, Config{MaxEntries: 1})

	tier.Touch(1)
	waitHot(t, tier, ex, 1)

	// Make source 2 strictly hotter than 1's accumulated poll count.
	target := tier.Hot(1)[0].Count + 50
	for i := int64(0); i < target; i++ {
		tier.Touch(2)
	}
	waitHot(t, tier, ex, 2)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if !pinned(tier, 1) && tier.Stats().Evictions > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("cold source never evicted: %+v", tier.Stats())
}

// TestTierCountsBuildFailuresByCause drives one build into each failure
// cause and checks each lands in its own counter: a build its budget
// stops, and a finished build that a write to its own shard beat to the
// install. The refresher never builds on its own here (MinHits is out of
// reach), so each build runs exactly once, on the test's goroutine.
func TestTierCountsBuildFailuresByCause(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 31)
	st := shard.NewStore(g, 8, 0)
	newTier := func(src core.SnapshotProvider, budget core.Budget) *Tier {
		tier := New(newQuerier(src), Config{
			RefreshBudget: budget, MinHits: math.MaxInt64,
		})
		t.Cleanup(tier.Close)
		return tier
	}
	const src = graph.NodeID(5)

	stopped := newTier(st, core.Budget{MaxWalks: 1})
	stopped.buildOne(src)
	if s := stopped.Stats(); s.BuildsStopped != 1 || s.BuildsRaced != 0 || s.Entries != 0 {
		t.Fatalf("one-walk budget: %+v, want one stopped build and no entry", s)
	}

	old := st.Current()
	if _, err := st.ApplyBatch(0, []shard.EdgeOp{{U: src, V: 399}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	st.Publish()
	p := &pinNext{st: st}
	raced := newTier(p, core.Budget{Timeout: 5 * time.Second})
	p.next.Store(old)
	raced.buildOne(src)
	if s := raced.Stats(); s.BuildsRaced != 1 || s.BuildsStopped != 0 || s.Entries != 0 {
		t.Fatalf("build overtaken by a write: %+v, want one raced build and no entry", s)
	}
	raced.buildOne(src) // pins the current generation this time
	if s := raced.Stats(); s.Entries != 1 || s.BuildsRaced != 1 || s.BuildsStopped != 0 {
		t.Fatalf("build on the current generation: %+v, want it installed", s)
	}
}

// TestTierDropsEntryOnDirectStoreWrite pins that a write made straight
// on the store, a self-assigned batch with no log or router in front,
// reaches the tier: an edge into a hot source, then publication, must
// leave its entry unservable.
func TestTierDropsEntryOnDirectStoreWrite(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 13)
	var hold atomic.Bool
	st, ex, tier := newTierOver(t, g, Config{Yield: hold.Load})

	const src = graph.NodeID(5)
	tier.Touch(src)
	waitHot(t, tier, ex, src)

	hold.Store(true) // no rebuild before the check below
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{{U: 399, V: src}}); err != nil {
		t.Fatal(err)
	}
	ex.Refresh()
	if _, ok := tier.SingleSource(ex.Snapshot(), src); ok {
		t.Fatalf("entry for %d still servable after a store write into it: %+v", src, tier.Stats())
	}
	if s := tier.Stats(); s.Invalidations < 1 {
		t.Fatalf("no invalidation recorded: %+v", s)
	}
}

// TestTierDropsEntriesAfterRolledBackBatch covers a move the stream never
// reports: a rejected batch rolls back, which can reorder the lists it
// touched, without firing the hook. The next reported batch does not
// continue the stream's version count, so it drops every entry, even one
// whose read set it misses.
func TestTierDropsEntriesAfterRolledBackBatch(t *testing.T) {
	const n = 256 // the two components of TestTierEntrySurvivesUnrelatedBatch
	g := graph.New(n)
	for i := 0; i < 31; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		g.AddEdge(graph.NodeID(i+1), graph.NodeID(i))
	}
	for i := 32; i < 63; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	var hold atomic.Bool
	st, ex, tier := newTierOver(t, g, Config{Yield: hold.Load})

	const src = graph.NodeID(3)
	tier.Touch(src)
	waitHot(t, tier, ex, src)

	hold.Store(true)
	if _, err := st.ApplyBatch(0, []shard.EdgeOp{{U: 40, V: 41, Remove: true}, {U: 50, V: 50}}); err == nil {
		t.Fatal("a batch with a self-loop applied")
	}
	if _, err := st.ApplyBatch(0, []shard.EdgeOp{{U: 40, V: 55}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	ex.Refresh()
	if _, ok := tier.SingleSource(ex.Snapshot(), src); ok {
		t.Fatalf("entry for %d survived a batch that followed an unreported rollback: %+v", src, tier.Stats())
	}
}

// pinNext is a snapshot provider over a store whose next PublishedView,
// once armed, returns an older generation: the build that pins it runs
// on a snapshot that batches reported since then have superseded.
type pinNext struct {
	st   *shard.Store
	next atomic.Pointer[shard.StoreSnapshot]
}

func (p *pinNext) PublishedView() graph.VersionedView {
	if s := p.next.Swap(nil); s != nil {
		return s
	}
	return p.st.PublishedView()
}

func (p *pinNext) PublishView(ctx context.Context) (graph.VersionedView, error) {
	return p.st.PublishView(ctx)
}

// TestTierInstallChecksBatchesSincePinnedSnapshot pins the node-level
// install check: a build whose pinned snapshot lacks only a reported
// batch outside its read set installs, and one whose snapshot lacks a
// batch into its source is discarded as raced.
func TestTierInstallChecksBatchesSincePinnedSnapshot(t *testing.T) {
	const n = 256 // the two components of TestTierEntrySurvivesUnrelatedBatch
	g := graph.New(n)
	for i := 0; i < 31; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		g.AddEdge(graph.NodeID(i+1), graph.NodeID(i))
	}
	for i := 32; i < 63; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	st := shard.NewStore(g, 8, 0)
	p := &pinNext{st: st}
	q := newQuerier(p)
	st.SubscribeApplied(q.Follow(st.Version))
	tier := New(q, Config{
		RefreshBudget: core.Budget{Timeout: 5 * time.Second}, MinHits: math.MaxInt64,
	})
	t.Cleanup(tier.Close)

	const src = graph.NodeID(3)
	buildBehind := func(op shard.EdgeOp) TierStats {
		old := st.Current()
		if _, err := st.ApplyBatch(0, []shard.EdgeOp{op}); err != nil {
			t.Fatalf("apply: %v", err)
		}
		st.Publish()
		p.next.Store(old)
		tier.buildOne(src)
		return tier.Stats()
	}
	if s := buildBehind(shard.EdgeOp{U: 40, V: 55}); s.Entries != 1 || s.BuildsRaced != 0 {
		t.Fatalf("build behind a batch outside its read set: %+v, want it installed", s)
	}
	if s := buildBehind(shard.EdgeOp{U: 5, V: src}); s.Entries != 0 || s.BuildsRaced != 1 {
		t.Fatalf("build behind a batch into its source: %+v, want it discarded as raced", s)
	}
}

// TestTierInstallsAcrossUnpublishedBatch: a build whose pinned snapshot
// lacks only a batch that is applied but not yet published, and outside
// its read set, installs; once the batch is published, the entry serves
// the bytes the live kernel computes on the new snapshot.
func TestTierInstallsAcrossUnpublishedBatch(t *testing.T) {
	const n = 256 // the two components of TestTierEntrySurvivesUnrelatedBatch
	g := graph.New(n)
	for i := 0; i < 31; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		g.AddEdge(graph.NodeID(i+1), graph.NodeID(i))
	}
	for i := 32; i < 63; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	st := shard.NewStore(g, 8, 0)
	q := newQuerier(st)
	st.SubscribeApplied(q.Follow(st.Version))
	tier := New(q, Config{
		RefreshBudget: core.Budget{Timeout: 5 * time.Second}, MinHits: math.MaxInt64,
	})
	t.Cleanup(tier.Close)

	const src = graph.NodeID(3)
	if _, err := st.ApplyBatch(0, []shard.EdgeOp{{U: 40, V: 55}}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	tier.buildOne(src) // pins the published snapshot, which lacks the batch
	if s := tier.Stats(); s.Entries != 1 || s.BuildsRaced != 0 {
		t.Fatalf("build behind an unpublished batch outside its read set: %+v, want it installed", s)
	}
	snap := st.Publish()
	got, ok := tier.SingleSource(snap, src)
	if !ok {
		t.Fatalf("entry not served after the batch was published: %+v", tier.Stats())
	}
	want, err := core.SingleSourceRanked(context.Background(), snap, src, testOpt())
	if err != nil {
		t.Fatalf("live kernel: %v", err)
	}
	assertBitIdentical(t, got.Dense(), want.Dense(), "entry built behind an unpublished batch")
}
