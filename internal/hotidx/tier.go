package hotidx

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/core"
	"probesim/internal/graph"
)

// Config tunes a Tier. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// MaxEntries bounds the number of precomputed hot-source entries
	// (default 64). Each entry is a sparse core.Ranked answer, 16 bytes
	// per non-zero score: tens to thousands per source on typical
	// graphs, never n.
	MaxEntries int
	// Opt is the kernel option set entries are built with. It MUST equal
	// the live serving options (same seed, εa, mode, ...) — the hot
	// tier's whole contract is that a served entry is byte-identical to
	// what the live kernel would return right now, and that only holds
	// when both run the same plan — Workers included: the kernel's
	// per-worker float accumulators merge in a worker-count-dependent
	// order, so a build at another width can differ in the last bits.
	// Only Budget is overridden per build (with RefreshBudget).
	Opt core.Options
	// RefreshBudget bounds each background build. It is forced non-zero
	// (default: 200ms timeout) so every refresh runs under an armed
	// budget.Meter — background work may never run unmetered.
	RefreshBudget core.Budget
	// MinHits is the sketch count a source needs before the tier spends
	// a build on it (default 2: never precompute for one-off sources).
	MinHits int64
	// Interval is the refresher's scan cadence (default 100ms). Applied
	// batches additionally wake it immediately.
	Interval time.Duration
	// Yield, when non-nil, is polled before each build; true means
	// foreground load wants the CPU and the refresher ends its round.
	// The server wires this to its admission inflight gauge.
	Yield func() bool
}

// entry is one precomputed hot-source result and the read set of the
// build that computed it.
type entry struct {
	ranked *core.Ranked // served as-is; its N is NumNodes at build time (AddNode guard)
	reads  core.ReadSet
}

// appliedBatch is one batch the stream reported: the source's versions
// before and after it, and a copy of its ops.
type appliedBatch struct {
	from, to uint64
	ops      []graph.EdgeOp
}

// Tier is the hot-source serving tier. See the package comment for the
// design; the consistency contract in one line: an entry is served only
// while no applied batch has had an endpoint in its build's read set (or
// grown the node space), and under the kernel's fixed seed that means
// the served answer is bit-identical to what the live kernel would
// compute against the currently published view.
//
// All methods are safe for concurrent use. SingleSource is the query
// hot path: one sketch touch plus an RLock'd map probe.
type Tier struct {
	ex     *core.Executor
	cfg    Config
	sketch *Sketch

	mu        sync.RWMutex
	entries   map[graph.NodeID]*entry
	dirty     map[graph.NodeID]uint64 // source -> batch id that first invalidated it
	watermark uint64                  // highest applied-batch id observed
	// tail is the source's version after the last reported batch. A
	// batch that does not start there follows a move the stream never
	// reported, and drops every entry.
	tail uint64
	// recent holds the reported batches that a build's pinned snapshot
	// may lack, oldest first, for the install check: those past the
	// published snapshot and, while a build runs (building; builds are
	// serial), past the version of the snapshot it pinned.
	recent   []appliedBatch
	building bool
	pinned   uint64

	walWatermark atomic.Uint64 // highest WAL-appended batch id observed

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	builds        atomic.Int64
	buildsStopped atomic.Int64
	buildsRaced   atomic.Int64
	stoppedNanos  atomic.Int64 // wall time of builds discarded as stopped
	racedNanos    atomic.Int64 // wall time of builds discarded as raced
	evictions     atomic.Int64
	yields        atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	notify chan struct{}
	done   chan struct{}
}

// New builds a tier over ex and starts its background refresher. Wire
// the source's applied-batch stream to Follow before writes flow. Close
// releases the refresher.
func New(ex *core.Executor, cfg Config) *Tier {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 64
	}
	if cfg.RefreshBudget.IsZero() {
		cfg.RefreshBudget.Timeout = 200 * time.Millisecond
	}
	if cfg.MinHits <= 0 {
		cfg.MinHits = 2
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Tier{
		ex: ex, cfg: cfg,
		// Track 4x the entry budget so sources rotating into the hot set
		// accumulate counts before they displace current members.
		sketch:  NewSketch(4 * cfg.MaxEntries),
		entries: make(map[graph.NodeID]*entry, cfg.MaxEntries),
		dirty:   make(map[graph.NodeID]uint64),
		ctx:     ctx, cancel: cancel,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	go t.refresher()
	return t
}

// Close stops the refresher and cancels any in-flight build.
func (t *Tier) Close() {
	t.cancel()
	<-t.done
}

// Touch records query interest in u without consulting the index (used
// by the ?tier=live escape hatch and by walk observers, so bypassed or
// remote traffic still shapes the hot set).
func (t *Tier) Touch(u graph.NodeID) { t.sketch.Touch(u) }

// SingleSource answers u from the index if a fresh entry exists for the
// given published view. The returned answer is shared — callers must not
// modify it. A false return means the caller should run the live kernel
// unchanged (the entry may be missing, invalidated, or built for a
// smaller node space than view now has).
func (t *Tier) SingleSource(view graph.View, u graph.NodeID) (*core.Ranked, bool) {
	t.sketch.Touch(u)
	t.mu.RLock()
	e, ok := t.entries[u]
	t.mu.RUnlock()
	if !ok || view == nil || e.ranked.N != view.NumNodes() {
		t.misses.Add(1)
		return nil, false
	}
	t.hits.Add(1)
	return e.ranked, true
}

// Follow returns the applied-batch hook to subscribe to the tier's source
// (shard.Store.SubscribeApplied). version must report the source's
// mutation counter when the hook runs (shard.Store.Version), and a batch
// of k ops must advance it by exactly k; see core.Querier.Follow. Call it
// while wiring, before writes flow.
func (t *Tier) Follow(version func() uint64) func(id uint64, ops []graph.EdgeOp) {
	t.mu.Lock()
	t.tail = version()
	t.mu.Unlock()
	return func(id uint64, ops []graph.EdgeOp) { t.onBatch(id, version(), ops) }
}

// onBatch advances the watermark and invalidates exactly the entries
// whose read set the batch's edge endpoints touch — everything else would
// re-execute bit-identically and stays servable — or every entry, when
// the batch does not continue the reported stream. Called under the
// store's apply lock, so besides reading the version it only takes the
// tier lock and never calls back into the store.
func (t *Tier) onBatch(id, to uint64, ops []graph.EdgeOp) {
	from := to - uint64(len(ops))
	t.mu.Lock()
	if id > t.watermark {
		t.watermark = id
	}
	unexplained := from != t.tail
	t.tail = to
	keep := t.ex.Snapshot().Version()
	if t.building {
		keep = min(keep, t.pinned)
	}
	i := 0
	for i < len(t.recent) && t.recent[i].to <= keep {
		i++
	}
	t.recent = append(t.recent[i:], appliedBatch{from: from, to: to, ops: slices.Clone(ops)})
	for src, e := range t.entries {
		if unexplained || e.reads.Touched(e.ranked.N, ops) {
			delete(t.entries, src)
			if _, dirty := t.dirty[src]; !dirty {
				t.dirty[src] = id // first invalidation: the lag metric's anchor
			}
			t.invalidations.Add(1)
		}
	}
	t.mu.Unlock()
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// ObserveAppend tracks the WAL append watermark (wire it to
// wal.Log.Subscribe). The gap between it and the applied watermark is
// exported as a freshness signal; appends always lead applies under the
// append-then-apply write plane, so the gap is transient by design.
func (t *Tier) ObserveAppend(id uint64) {
	for {
		cur := t.walWatermark.Load()
		if id <= cur || t.walWatermark.CompareAndSwap(cur, id) {
			return
		}
	}
}

// TierStats is a point-in-time counter snapshot for /stats and /metrics.
type TierStats struct {
	Entries        int   // fresh precomputed entries
	StaleEntries   int   // invalidated hot sources awaiting rebuild
	TrackedSources int   // sources in the popularity sketch
	Hits           int64 // queries answered from the index
	Misses         int64 // queries that fell through to the live kernel
	Invalidations  int64 // entries dropped by applied batches
	Builds         int64 // background build attempts
	BuildsStopped  int64 // builds a budget stop or cancellation cut short
	BuildsRaced    int64 // finished builds discarded for losing the install race
	// Wall seconds the discarded builds ran, by the same causes.
	StoppedBuildSeconds float64
	RacedBuildSeconds   float64
	Evictions           int64 // entries dropped for falling out of the hot set
	Yields              int64 // refresher rounds cut short for foreground load

	Watermark    uint64 // highest applied-batch id observed
	WALWatermark uint64 // highest WAL-appended batch id observed
	// LagBatches bounds staleness: how many batches the oldest
	// invalidated entry is behind the applied watermark (0 = every hot
	// entry is fresh). This is the exported staleness bound.
	LagBatches uint64
}

// Stats returns current tier counters.
func (t *Tier) Stats() TierStats {
	t.mu.RLock()
	s := TierStats{
		Entries:      len(t.entries),
		StaleEntries: len(t.dirty),
		Watermark:    t.watermark,
	}
	oldest := uint64(0)
	for _, id := range t.dirty {
		if oldest == 0 || id < oldest {
			oldest = id
		}
	}
	if oldest > 0 && s.Watermark >= oldest {
		s.LagBatches = s.Watermark - oldest + 1
	}
	t.mu.RUnlock()
	s.TrackedSources = t.sketch.Tracked()
	s.Hits = t.hits.Load()
	s.Misses = t.misses.Load()
	s.Invalidations = t.invalidations.Load()
	s.Builds = t.builds.Load()
	s.BuildsStopped = t.buildsStopped.Load()
	s.BuildsRaced = t.buildsRaced.Load()
	s.StoppedBuildSeconds = time.Duration(t.stoppedNanos.Load()).Seconds()
	s.RacedBuildSeconds = time.Duration(t.racedNanos.Load()).Seconds()
	s.Evictions = t.evictions.Load()
	s.Yields = t.yields.Load()
	s.WALWatermark = t.walWatermark.Load()
	return s
}

// Hot returns the sketch's current top sources (diagnostics).
func (t *Tier) Hot(limit int) []SourceCount { return t.sketch.Top(limit) }

// refresher is the single background goroutine: each round it reconciles
// the entry set against the sketch's current hot set, rebuilding missing
// or invalidated entries one at a time (kernel-internal parallelism is
// Opt.Workers wide, as on the live path) and evicting entries that went
// cold. Rounds run on Interval ticks and immediately after applied
// batches.
func (t *Tier) refresher() {
	defer close(t.done)
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-t.ctx.Done():
			return
		case <-tick.C:
		case <-t.notify:
		}
		t.reconcile()
	}
}

func (t *Tier) reconcile() {
	top := t.sketch.Top(t.cfg.MaxEntries)
	want := make(map[graph.NodeID]struct{}, len(top))
	var build []graph.NodeID
	t.mu.Lock()
	for _, sc := range top {
		if sc.Count < t.cfg.MinHits {
			continue
		}
		want[sc.Node] = struct{}{}
		if _, ok := t.entries[sc.Node]; !ok {
			build = append(build, sc.Node)
		}
	}
	for src := range t.entries {
		if _, ok := want[src]; !ok {
			delete(t.entries, src)
			t.evictions.Add(1)
		}
	}
	for src := range t.dirty {
		if _, ok := want[src]; !ok {
			delete(t.dirty, src) // went cold while stale: stop counting it against freshness
		}
	}
	t.mu.Unlock()
	for _, src := range build {
		if t.ctx.Err() != nil {
			return
		}
		if t.cfg.Yield != nil && t.cfg.Yield() {
			// Foreground admission wants the CPU; abandon the round.
			// Nothing is lost — the next tick resumes exactly here.
			t.yields.Add(1)
			return
		}
		t.buildOne(src)
	}
}

// buildOne precomputes one entry: pin the published snapshot, run the
// tracked kernel on it (capturing the build's read set), then install —
// unless a write the build did not see could affect it, in which case the
// result is discarded and the source stays pending (installOK).
func (t *Tier) buildOne(src graph.NodeID) {
	t.mu.Lock()
	s0 := t.ex.Snapshot()
	if s0 == nil || int(src) >= s0.NumNodes() {
		delete(t.dirty, src) // source does not exist in this graph; nothing to build
		t.mu.Unlock()
		return
	}
	t.building, t.pinned = true, s0.Version()
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.building = false
		t.mu.Unlock()
	}()

	opt := t.cfg.Opt
	opt.Budget = t.cfg.RefreshBudget
	t.builds.Add(1)
	start := time.Now()
	ranked, reads, err := core.SingleSourceTracked(t.ctx, s0, src, opt)
	if err != nil {
		// Budget-stopped or canceled: a partial estimate is NOT
		// bit-identical to the live kernel, so it never enters the index.
		t.buildsStopped.Add(1)
		t.stoppedNanos.Add(int64(time.Since(start)))
		return
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.installOK(s0, t.ex.Snapshot(), reads) {
		t.buildsRaced.Add(1)
		t.racedNanos.Add(int64(time.Since(start)))
		return
	}
	t.entries[src] = &entry{ranked: ranked, reads: reads}
	delete(t.dirty, src)
}

// installOK is the install race check, called with t.mu held: a build
// with read set reads ran against pinned snapshot s0 while writes kept
// flowing, and its answer may only be installed if every write s0 lacks
// is a reported batch that missed reads. Those batches are the ones in
// recent past s0: from s0 on they must continue one another and miss
// reads, and the published snapshot cur must be one of the states they
// explain. A batch applied but not yet published needs no check of its
// own: onBatch runs under the store's apply lock, so the batch is in
// recent before any snapshot can hold it, and the answer is valid both
// before and after its publication.
func (t *Tier) installOK(s0, cur graph.VersionedView, reads core.ReadSet) bool {
	if cur == nil || cur.NumNodes() != s0.NumNodes() {
		return false
	}
	at := s0.Version()
	for _, b := range t.recent {
		if b.to <= at {
			continue // s0 has it
		}
		if b.from != at || reads.Touched(s0.NumNodes(), b.ops) {
			return false
		}
		at = b.to
	}
	return cur.Version() <= at
}
