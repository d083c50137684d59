package hotidx

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/core"
	"probesim/internal/graph"
	"probesim/internal/shard"
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

// entry is one precomputed hot-source result, pinned to the snapshot
// generation it was built on plus the dependency buckets the build read.
type entry struct {
	source  graph.NodeID
	ranked  *core.Ranked // served as-is; its N is NumNodes at build time (AddNode guard)
	version uint64       // snapshot version at build time (debugging)
	batch   uint64       // applied-batch watermark at install time
	deps    depSet
}

// Tier is the hot-source serving tier. See the package comment for the
// design; the consistency contract in one line: an entry is served only
// while no applied batch has touched its recorded dependency set (or
// grown the node space), and under the kernel's fixed seed that means
// the served answer is bit-identical to what the live kernel would
// compute against the currently published view.
//
// All methods are safe for concurrent use. SingleSource is the query
// hot path: one sketch touch plus an RLock'd map probe.
type Tier struct {
	ex     *core.Executor
	shift  uint32
	cfg    Config
	sketch *Sketch

	mu        sync.RWMutex
	entries   map[graph.NodeID]*entry
	dirty     map[graph.NodeID]uint64 // source -> batch id that first invalidated it
	watermark uint64                  // highest applied-batch id observed

	walWatermark atomic.Uint64 // highest WAL-appended batch id observed

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	builds        atomic.Int64
	buildsStopped atomic.Int64
	buildsRaced   atomic.Int64
	evictions     atomic.Int64
	yields        atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	notify chan struct{}
	done   chan struct{}
}

// New builds a tier over ex and starts its background refresher. shift
// is the dependency-bucket stride in bits — pass the store partition's
// Shift() so buckets coincide with shard indices (and with the touched
// sets OnBatch and TouchedSince speak). Close releases the refresher.
func New(ex *core.Executor, shift uint32, cfg Config) *Tier {
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
		ex: ex, shift: shift, cfg: cfg,
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

// OnBatch is the applied-batch subscription hook (wire it to
// shard.Store.SubscribeApplied). It advances the watermark and
// invalidates exactly the entries whose dependency set the batch's edge
// endpoints touch — everything else would re-execute bit-identically and
// stays servable. Called under the store's apply lock, so it only takes
// the tier lock and never calls back into the store.
func (t *Tier) OnBatch(id uint64, ops []graph.EdgeOp) {
	touched := make(map[uint32]struct{}, len(ops)*2)
	maxNode := graph.NodeID(0)
	for _, op := range ops {
		touched[uint32(op.U)>>t.shift] = struct{}{}
		touched[uint32(op.V)>>t.shift] = struct{}{}
		if op.U > maxNode {
			maxNode = op.U
		}
		if op.V > maxNode {
			maxNode = op.V
		}
	}
	t.mu.Lock()
	if id > t.watermark {
		t.watermark = id
	}
	for src, e := range t.entries {
		hit := graph.NodeID(e.ranked.N) <= maxNode // batch grows the node space past the entry's answer
		if !hit {
			for b := range touched {
				if e.deps.has(b) {
					hit = true
					break
				}
			}
		}
		if hit {
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
	Evictions      int64 // entries dropped for falling out of the hot set
	Yields         int64 // refresher rounds cut short for foreground load

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
// kernel through a recording view (capturing the dependency buckets),
// then install — unless the store moved under the build in a way that
// could affect it, in which case the result is discarded and the source
// stays pending (the install race check below).
func (t *Tier) buildOne(src graph.NodeID) {
	s0 := t.ex.Snapshot()
	if s0 == nil || int(src) >= s0.NumNodes() {
		t.mu.Lock()
		delete(t.dirty, src) // source does not exist in this graph; nothing to build
		t.mu.Unlock()
		return
	}
	t.mu.RLock()
	wm0 := t.watermark
	t.mu.RUnlock()

	rv := newRecordingView(s0, t.shift)
	opt := t.cfg.Opt
	opt.Budget = t.cfg.RefreshBudget
	t.builds.Add(1)
	ranked, err := core.SingleSourceRanked(t.ctx, rv, src, opt)
	if err != nil {
		// Budget-stopped or canceled: a partial estimate is NOT
		// bit-identical to the live kernel, so it never enters the index.
		t.buildsStopped.Add(1)
		return
	}
	deps := rv.deps()
	deps.add(uint32(src) >> t.shift) // the source's own bucket, even if never walked

	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.ex.Snapshot()
	if !t.installOK(s0, cur, deps, wm0) {
		t.buildsRaced.Add(1)
		return
	}
	t.entries[src] = &entry{
		source: src, ranked: ranked,
		version: s0.Version(), batch: t.watermark, deps: deps,
	}
	delete(t.dirty, src)
}

// installOK is the install race check, called with t.mu held: a build
// ran against pinned snapshot s0 while writes kept flowing; the result
// may only be installed if nothing that could affect it happened since.
// Over a shard store that is precise — compare per-shard versions
// (TouchedSince) against the recorded dependency set, and reject if any
// applied batch is not yet visible in the published snapshot (the
// applied-but-unpublished window; the server publishes synchronously
// after apply, so it is microseconds wide). Over a generic provider the
// check degrades to "nothing moved at all".
func (t *Tier) installOK(s0, cur graph.VersionedView, deps depSet, wm0 uint64) bool {
	if cur == nil || cur.NumNodes() != s0.NumNodes() {
		return false
	}
	ss0, ok0 := s0.(*shard.StoreSnapshot)
	ssc, okc := cur.(*shard.StoreSnapshot)
	if ok0 && okc {
		if deps.intersects(ssc.TouchedSince(ss0)) {
			return false
		}
		return t.watermark <= ssc.LastBatch()
	}
	return cur.Version() == s0.Version() && t.watermark == wm0
}
