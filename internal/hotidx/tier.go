package hotidx

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"probesim/internal/core"
	"probesim/internal/graph"
)

// Config tunes a Tier. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// MaxEntries bounds the number of hot sources the tier pins in the
	// Querier (default 64). Each pinned answer is a sparse core.Ranked,
	// 16 bytes per non-zero score: tens to thousands per source on
	// typical graphs, never n.
	MaxEntries int
	// RefreshBudget bounds each background build. It is forced non-zero
	// (default: 200ms timeout) so every refresh runs under an armed
	// budget.Meter — background work may never run unmetered. A build
	// otherwise runs with the Querier's executor options, the live
	// path's own, so its answer is bit-identical to a live miss's.
	RefreshBudget core.Budget
	// MinHits is the sketch count a source needs before the tier spends
	// a build on it (default 2: never precompute for one-off sources).
	MinHits int64
	// Interval is the refresher's scan cadence (default 100ms).
	Interval time.Duration
	// Yield, when non-nil, is polled before each build; true means
	// foreground load wants the CPU and the refresher ends its round.
	// The server wires this to its admission inflight gauge.
	Yield func() bool
}

// Tier is the hot-source serving tier. See the package comment for the
// design; the consistency contract in one line: the tier serves only
// answers the Querier holds pinned, and the Querier holds an answer only
// while no move of the graph can have changed it, so under the kernel's
// fixed seed the served answer is bit-identical to what the live kernel
// would compute against the currently published view.
//
// All methods are safe for concurrent use. SingleSource is the query
// hot path: one sketch touch plus one Querier lookup.
type Tier struct {
	q      *core.Querier
	cfg    Config
	sketch *Sketch

	hits          atomic.Int64
	misses        atomic.Int64
	builds        atomic.Int64
	buildsStopped atomic.Int64
	buildsRaced   atomic.Int64
	stoppedNanos  atomic.Int64 // wall time of builds discarded as stopped
	racedNanos    atomic.Int64 // wall time of builds discarded as raced
	evictions     atomic.Int64
	yields        atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a tier that pins its hot sources in q and starts its
// background refresher. Close releases the refresher.
func New(q *core.Querier, cfg Config) *Tier {
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
		q: q, cfg: cfg,
		// Track 4x the entry budget so sources rotating into the hot set
		// accumulate counts before they displace current members.
		sketch: NewSketch(4 * cfg.MaxEntries),
		ctx:    ctx, cancel: cancel,
		done: make(chan struct{}),
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
// by the ?tier=live escape hatch, so bypassed traffic still shapes the
// hot set).
func (t *Tier) Touch(u graph.NodeID) { t.sketch.Touch(u) }

// SingleSource answers u from its pinned answer in the Querier if one
// holds at the given published view. The returned answer is shared —
// callers must not modify it. A false return means the caller should
// proceed down the live path unchanged (the source may be cold, its
// answer dropped by a write, or view newer than the Querier has seen).
func (t *Tier) SingleSource(view graph.VersionedView, u graph.NodeID) (*core.Ranked, bool) {
	t.sketch.Touch(u)
	if r, ok := t.q.Pinned(view, u); ok {
		t.hits.Add(1)
		return r, true
	}
	t.misses.Add(1)
	return nil, false
}

// TierStats is a point-in-time counter snapshot for /stats and /metrics.
type TierStats struct {
	Entries        int   // pinned answers the Querier holds
	StaleEntries   int   // hot sources a write left without an answer, awaiting rebuild
	TrackedSources int   // sources in the popularity sketch
	Hits           int64 // queries answered from a pinned answer
	Misses         int64 // queries that fell through to the live path
	Invalidations  int64 // pinned answers dropped by applied batches
	Builds         int64 // background build attempts
	BuildsStopped  int64 // builds a budget stop or cancellation cut short
	BuildsRaced    int64 // finished builds discarded for losing the install race
	// Wall seconds the discarded builds ran, by the same causes.
	StoppedBuildSeconds float64
	RacedBuildSeconds   float64
	Evictions           int64 // pinned answers demoted for falling out of the hot set
	Yields              int64 // refresher rounds cut short for foreground load

	// LagBatches bounds staleness: how many batches the oldest stale hot
	// source is behind the last applied batch (0 = every hot source
	// holds a fresh answer). This is the exported staleness bound.
	LagBatches uint64
}

// Stats returns current tier counters.
func (t *Tier) Stats() TierStats {
	cs := t.q.CacheStats()
	return TierStats{
		Entries:             cs.Pinned,
		StaleEntries:        cs.Stale,
		TrackedSources:      t.sketch.Tracked(),
		Hits:                t.hits.Load(),
		Misses:              t.misses.Load(),
		Invalidations:       cs.PinnedDropped,
		Builds:              t.builds.Load(),
		BuildsStopped:       t.buildsStopped.Load(),
		BuildsRaced:         t.buildsRaced.Load(),
		StoppedBuildSeconds: time.Duration(t.stoppedNanos.Load()).Seconds(),
		RacedBuildSeconds:   time.Duration(t.racedNanos.Load()).Seconds(),
		Evictions:           t.evictions.Load(),
		Yields:              t.yields.Load(),
		LagBatches:          cs.Lag,
	}
}

// Hot returns the sketch's current top sources (diagnostics).
func (t *Tier) Hot(limit int) []SourceCount { return t.sketch.Top(limit) }

// refresher is the single background goroutine: each Interval it
// reconciles the pinned set against the sketch's current hot set,
// building the hot sources with no held answer one at a time
// (kernel-internal parallelism is the executor's Workers wide, as on
// the live path) and demoting the ones that went cold.
func (t *Tier) refresher() {
	defer close(t.done)
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-t.ctx.Done():
			return
		case <-tick.C:
		}
		t.reconcile()
	}
}

func (t *Tier) reconcile() {
	var hot []graph.NodeID
	for _, sc := range t.sketch.Top(t.cfg.MaxEntries) {
		if sc.Count >= t.cfg.MinHits {
			hot = append(hot, sc.Node)
		}
	}
	build, demoted := t.q.Pin(hot)
	t.evictions.Add(int64(demoted))
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

// buildOne precomputes one pinned answer through the Querier (Build) and
// counts how it ended.
func (t *Tier) buildOne(src graph.NodeID) {
	start := time.Now()
	ran, err := t.q.Build(t.ctx, src, t.cfg.RefreshBudget)
	if !ran {
		return
	}
	t.builds.Add(1)
	switch {
	case errors.Is(err, core.ErrRaced):
		t.buildsRaced.Add(1)
		t.racedNanos.Add(int64(time.Since(start)))
	case err != nil:
		// Budget-stopped or canceled: a partial estimate is NOT
		// bit-identical to the live kernel, so it is never installed.
		t.buildsStopped.Add(1)
		t.stoppedNanos.Add(int64(time.Since(start)))
	}
}
