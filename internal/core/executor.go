package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"probesim/internal/graph"
)

// SnapshotProvider is the snapshot-management seam behind an Executor:
// something that can hand out the currently published immutable view and
// republish it when the underlying mutable graph moved. Three
// implementations exist — the monolithic graphProvider below (one CSR
// snapshot, full O(n+m) rebuild; the library facade's), the sharded
// shard.Store (per-shard CSR, O(batch + touched shards) republish), and
// router.Router (the server's only backend: the store's own snapshots on
// its single-engine fast path, a composite view over a worker fleet) —
// and the executor and querier are agnostic between them.
type SnapshotProvider interface {
	// PublishedView returns the current published view. Never blocks.
	PublishedView() graph.VersionedView
	// PublishView republishes if the mutable side moved and returns the
	// (possibly unchanged) published view. Callers must serialize it
	// against mutations of the underlying graph, never against readers.
	//
	// A canceled ctx aborts the (re)publication and returns an error with
	// the previously published view: the mutable side keeps its pending
	// changes and the next PublishView picks them up, so cancellation can
	// delay visibility but never corrupt it.
	PublishView(ctx context.Context) (graph.VersionedView, error)
}

// graphProvider is the monolithic SnapshotProvider: one *graph.Snapshot
// behind an atomic pointer, rebuilt in full (in parallel over node
// ranges; see (*graph.Graph).Snapshot) when the graph's version moved.
type graphProvider struct {
	g    *graph.Graph
	mu   sync.Mutex // serializes PublishView against itself
	snap atomic.Pointer[graph.Snapshot]
}

func newGraphProvider(g *graph.Graph) *graphProvider {
	p := &graphProvider{g: g}
	p.snap.Store(g.Snapshot())
	return p
}

func (p *graphProvider) PublishedView() graph.VersionedView { return p.snap.Load() }

func (p *graphProvider) PublishView(ctx context.Context) (graph.VersionedView, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.snap.Load(); s.Version() == p.g.Version() {
		return s, nil
	}
	// The monolithic rebuild is one uninterruptible O(n+m) pass; honor
	// cancellation at the boundary rather than mid-copy.
	if err := ctx.Err(); err != nil {
		return p.snap.Load(), fmt.Errorf("core: snapshot publication aborted: %w", err)
	}
	s := p.g.Snapshot()
	p.snap.Store(s)
	return s, nil
}

// Executor is the serving-path front end for ProbeSim queries over a
// dynamic graph: a snapshot manager in front of the query kernels.
//
// It serves queries against the immutable view its SnapshotProvider has
// published. Queries load the view once and run entirely against it — no
// lock is held, so an edge update can never stall a query and a long
// query can never stall an update. Writers mutate the underlying graph
// (or shard.Store) under their own discipline and then call Refresh,
// which republishes and installs the new view with a single atomic store;
// queries already in flight keep the view they grabbed (a consistent,
// slightly stale state — exactly what the paper's dynamic-graph setting
// permits, since ProbeSim has no index to patch).
//
// Per-query working memory (dense accumulators, probe frontiers, walk
// buffers, the batch-mode walk tree) comes from the package's size-keyed
// scratch pool, shared with the plain SingleSource and TopK entry points,
// so steady-state queries allocate almost nothing beyond their result.
//
// Concurrency contract: any number of goroutines may query concurrently.
// Mutating the graph and calling Refresh must be externally serialized
// against other mutations (e.g. internal/server holds its write mutex
// across both), but never against queries.
type Executor struct {
	src SnapshotProvider
	opt Options
}

// NewExecutor builds an executor over g with the given default query
// options, publishing an initial monolithic snapshot of g's current
// state. Mutate g under your own write discipline (never concurrently
// with Refresh) and call Refresh to make mutations visible to queries.
func NewExecutor(g *graph.Graph, opt Options) *Executor {
	return NewExecutorOn(newGraphProvider(g), opt)
}

// NewExecutorOn builds an executor over an external snapshot provider
// (e.g. a shard.Store), which owns publication.
func NewExecutorOn(src SnapshotProvider, opt Options) *Executor {
	return &Executor{src: src, opt: opt}
}

// Snapshot returns the currently published view. It never blocks.
func (e *Executor) Snapshot() graph.VersionedView { return e.src.PublishedView() }

// Refresh publishes a fresh view if the underlying graph's version moved
// since the last publication and returns the current view either way. The
// caller must ensure no concurrent mutation while Refresh reads the
// mutable side (the same contract as (*graph.Graph).Snapshot).
func (e *Executor) Refresh() graph.VersionedView {
	v, _ := e.src.PublishView(context.Background())
	return v
}

// RefreshCtx is Refresh with cancellation: a canceled ctx aborts the
// publication (returning the previously published view and an error) and
// leaves the pending mutations for the next publication. See
// SnapshotProvider.PublishView for the consistency argument.
func (e *Executor) RefreshCtx(ctx context.Context) (graph.VersionedView, error) {
	return e.src.PublishView(ctx)
}

// SingleSource answers a single-source query against the current view.
// The returned vector is freshly allocated and owned by the caller. ctx
// and the executor options' Budget bound the query; a stopped query
// returns its partial estimate alongside the error (see the
// package-level SingleSource).
func (e *Executor) SingleSource(ctx context.Context, u graph.NodeID) ([]float64, error) {
	return SingleSource(ctx, e.src.PublishedView(), u, e.opt)
}

// TopK answers a top-k query against the current view through the
// package-level TopK, which ranks a sparse Ranked answer instead of a
// dense vector.
func (e *Executor) TopK(ctx context.Context, u graph.NodeID, k int) ([]ScoredNode, error) {
	return TopK(ctx, e.src.PublishedView(), u, k, e.opt)
}

// SingleSourceInto answers a single-source query against the current
// view, writing the result into dst when cap(dst) >= NumNodes (and
// allocating otherwise). Combined with the pooled scratch this makes the
// steady-state query path allocation-free up to a handful of fixed-size
// bookkeeping objects; it is meant for callers that consume a vector and
// move on (serializers, aggregators) rather than retain it.
func (e *Executor) SingleSourceInto(ctx context.Context, u graph.NodeID, dst []float64) ([]float64, error) {
	return singleSourceInto(ctx, e.src.PublishedView(), u, e.opt, dst)
}
