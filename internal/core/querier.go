package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"probesim/internal/budget"
	"probesim/internal/graph"
)

// Querier is the "lightweight indexing" idea the paper's conclusion (§7)
// sketches as future work: keep ProbeSim index-free, but memoize recent
// query results so that repeated queries are free while every cached
// answer stays bit-identical to a fresh kernel run on the current graph.
//
// How a write reaches the cache depends on what the Querier can see of
// it. By default the cache is keyed by snapshot version: a fresh snapshot
// carries a fresh version, and the first query to see it empties the
// cache. That is the library's NewQuerier over a mutable graph, and a
// server over a worker fleet. A Querier that Follows its source's
// applied-batch stream (a server over an in-process shard.Store) instead
// keeps each answer's read set (SingleSourceTracked) and drops only the
// answers a batch touched: every other answer carries to the new
// snapshot, because a rerun there would read the same bytes. Anything the
// stream does not explain — a node added, a batch rolled back, a move of
// the source it never reported — still empties the cache.
//
// The cache holds at most Capacity answers with LRU eviction. Each is a
// sparse Ranked answer, 16 bytes per non-zero score (tens to thousands
// of them on typical graphs, against 8n bytes for a dense vector), so a
// hit ranks by reading a prefix. A Querier is safe for concurrent use;
// cache misses run queries outside the lock so distinct-node misses
// proceed in parallel, while concurrent misses for the SAME node are
// de-duplicated single-flight style: one goroutine computes, the rest
// wait for its result. (Under serving load the duplicate work the seed
// tolerated is anything but benign: a popular node going viral would
// multiply an O(n/εa²·log n) computation by the number of concurrent
// requests.)
type Querier struct {
	ex *Executor
	// track controls staleness detection: a standalone Querier built by
	// NewQuerier refreshes the executor's snapshot on every query (the
	// legacy "mutate between queries" contract), while a Querier sharing a
	// server-owned Executor trusts the server to Refresh after mutations
	// and never touches the mutable graph on the read path.
	track    bool
	capacity int
	// followed is set by Follow: misses then record their read sets, and
	// applied batches drop only the entries they touch.
	followed bool

	mu      sync.Mutex
	entries map[graph.NodeID]*list.Element
	order   *list.List // front = most recent
	// Every entry holds at every published version in [version, tail].
	// Without a stream tail == version. With one, tail is the source's
	// version after the last reported batch: the batches from version to
	// tail were all reported, and each dropped the entries it touched.
	version, tail uint64
	flights       map[graph.NodeID]*flight

	hits, misses, shared, evictions int64
	inv                             Invalidations
}

type cacheEntry struct {
	node   graph.NodeID
	ranked *Ranked
	reads  ReadSet // nil (unbounded) unless the Querier follows a stream
}

// flight is one in-progress single-source computation that concurrent
// misses for the same node attach to.
type flight struct {
	done   chan struct{}
	ranked *Ranked
	err    error
}

// NewQuerier wraps g with a result cache of the given capacity (number of
// cached single-source answers; minimum 1). The graph may be mutated
// between queries (each query picks up the latest state) but not while
// queries are in flight; use NewQuerierOn with an externally refreshed
// Executor for that.
func NewQuerier(g *graph.Graph, opt Options, capacity int) *Querier {
	return newQuerier(NewExecutor(g, opt), capacity, true)
}

// NewQuerierOn wraps an existing Executor with a result cache. The caller
// owns snapshot publication: queries always run against ex's current
// snapshot and never read the mutable graph, so they are safe to run
// concurrently with graph mutations as long as the mutator calls
// ex.Refresh.
func NewQuerierOn(ex *Executor, capacity int) *Querier {
	return newQuerier(ex, capacity, false)
}

func newQuerier(ex *Executor, capacity int, track bool) *Querier {
	if capacity < 1 {
		capacity = 1
	}
	v := ex.Snapshot().Version()
	return &Querier{
		ex:       ex,
		track:    track,
		capacity: capacity,
		entries:  make(map[graph.NodeID]*list.Element),
		order:    list.New(),
		version:  v,
		tail:     v,
		flights:  make(map[graph.NodeID]*flight),
	}
}

// Follow switches q from version-keyed invalidation to its source's
// applied-batch stream and returns the hook to subscribe to that stream
// (shard.Store.SubscribeApplied). Call it while wiring, before queries
// and writes flow.
//
// version must report the source's mutation counter when the hook runs
// (shard.Store.Version, which the store holds still during its hooks),
// and a batch of k ops must advance that counter by exactly k. That is
// how the hook tells a batch that continues the stream from a move it
// never reported (an AddNode, a rolled-back batch), which empties the
// cache instead.
func (q *Querier) Follow(version func() uint64) func(id uint64, ops []graph.EdgeOp) {
	q.mu.Lock()
	q.followed = true
	q.mu.Unlock()
	return func(_ uint64, ops []graph.EdgeOp) { q.onBatch(version(), ops) }
}

// onBatch drops the entries that one applied batch, which left the
// source at version to, can change.
func (q *Querier) onBatch(to uint64, ops []graph.EdgeOp) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if to-uint64(len(ops)) != q.tail {
		q.flushLocked(to)
		return
	}
	q.tail = to
	for el := q.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.reads.Touched(e.ranked.N, ops) {
			if e.reads == nil {
				q.inv.Unbounded++
			} else {
				q.inv.Touched++
			}
			q.order.Remove(el)
			delete(q.entries, e.node)
		}
		el = next
	}
}

// flushLocked empties the cache and keys it to version v. In-progress
// flights stay in the map until their owners finish; new misses start
// fresh flights, so the stale ones are dropped here.
func (q *Querier) flushLocked(v uint64) {
	q.inv.Flush += int64(q.order.Len())
	q.entries = make(map[graph.NodeID]*list.Element)
	q.order.Init()
	q.flights = make(map[graph.NodeID]*flight)
	q.version, q.tail = v, v
}

// Executor returns the underlying executor.
func (q *Querier) Executor() *Executor { return q.ex }

// isOwnerSpecific reports whether a flight error is a property of the
// owning request's patience (its context was canceled or its deadline
// passed) rather than of the query itself. Shared-configuration trips —
// walk/work caps and deadlines derived from the executor options'
// Budget.Timeout, which budget.Error marks as Shared — are deliberately
// NOT in this family: an identically-configured retry is doomed to the
// same failure, so waiters must share it instead of repeating it.
func isOwnerSpecific(err error) bool {
	var be *budget.Error
	if errors.As(err, &be) && be.Shared {
		return false
	}
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Ranked returns the cached single-source answer for u, computing and
// caching it on a miss. The returned Ranked is shared with the cache
// (and with any concurrent callers that joined the same computation):
// callers must not modify it.
//
// ctx bounds this caller's query (together with the executor options'
// Budget). Cache hits are free and never fail; misses run under ctx. A
// caller that joins another goroutine's in-flight computation waits no
// longer than its own ctx allows, and if the flight owner was canceled
// while this caller is still live, the caller recomputes on its own —
// one request's tight deadline never poisons another's answer. Partial
// (canceled) results are returned to their owner with the error but are
// never cached.
func (q *Querier) Ranked(ctx context.Context, u graph.NodeID) (*Ranked, error) {
	snap := q.ex.Snapshot()
	if q.track {
		snap = q.ex.Refresh()
	}
	q.mu.Lock()
	switch v := snap.Version(); {
	case v > q.tail:
		// The graph moved further than the stream explains (without a
		// stream: it moved at all), so every cached answer may be stale.
		q.flushLocked(v)
	case v > q.version:
		// Every entry carries to v. Flights computing at an older version
		// may not hold at v, so misses at v start fresh ones.
		q.flights = make(map[graph.NodeID]*flight)
		q.version = v
	case v < q.version:
		// This goroutine grabbed its snapshot, then a mutation published a
		// newer one and another query already advanced the cache to it.
		// Serve consistently from the old snapshot WITHOUT touching the
		// cache: resetting q.version backward would wipe the warm cache
		// (and its single-flight dedup) on every slow request that
		// overlaps a write.
		q.misses++
		q.mu.Unlock()
		return SingleSourceRanked(ctx, snap, u, q.ex.opt)
	}
	if el, ok := q.entries[u]; ok {
		q.order.MoveToFront(el)
		q.hits++
		r := el.Value.(*cacheEntry).ranked
		q.mu.Unlock()
		return r, nil
	}
	if f, ok := q.flights[u]; ok {
		// Another goroutine is already computing u at this version: wait
		// for it instead of repeating the work — but no longer than this
		// caller's own context allows.
		q.shared++
		q.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("core: query %d: abandoned shared flight: %w", u, ctx.Err())
		}
		if f.err != nil && isOwnerSpecific(f.err) && ctx.Err() == nil {
			// The flight owner ran out of time or budget, but this caller
			// has not: re-enter the cache path instead of inheriting a
			// stranger's partial answer. Going through Ranked (not
			// straight to the kernel) matters under load — the first
			// live waiter registers a fresh flight and the rest join IT,
			// so a canceled owner costs one recomputation, not one per
			// waiter. Terminates because each recursion requires the new
			// owner to be canceled while this caller is not, and this
			// caller's own expiry exits via the selects above.
			return q.Ranked(ctx, u)
		}
		return f.ranked, f.err
	}
	q.misses++
	f := &flight{done: make(chan struct{})}
	q.flights[u] = f
	version := q.version
	followed := q.followed
	q.mu.Unlock()

	var (
		r     *Ranked
		reads ReadSet
		err   error
	)
	if followed {
		r, reads, err = SingleSourceTracked(ctx, snap, u, q.ex.opt)
	} else {
		r, err = SingleSourceRanked(ctx, snap, u, q.ex.opt)
	}
	f.ranked, f.err = r, err

	q.mu.Lock()
	defer q.mu.Unlock()
	// Deregister BEFORE closing f.done (both under the mutex): a waiter
	// that wakes on the close and re-enters Ranked to retry an
	// owner-specific failure must never re-find this completed flight,
	// or it would spin joining it until the owner won the mutex race.
	if q.flights[u] == f {
		delete(q.flights, u)
	}
	close(f.done)
	if err != nil {
		// Partial (canceled/budget-stopped) answers go back to the caller
		// for diagnostics but must never enter the cache.
		return r, err
	}
	// Only cache if nothing was applied or published from the start of the
	// computation on: tail == version means no batch was reported, also
	// none that was applied but not yet published when the miss began.
	if q.tail == version && q.ex.Snapshot().Version() == version {
		if el, ok := q.entries[u]; ok {
			q.order.MoveToFront(el)
		} else {
			el := q.order.PushFront(&cacheEntry{node: u, ranked: r, reads: reads})
			q.entries[u] = el
			for q.order.Len() > q.capacity {
				last := q.order.Back()
				q.order.Remove(last)
				delete(q.entries, last.Value.(*cacheEntry).node)
				q.evictions++
			}
		}
	}
	return r, nil
}

// SingleSource returns u's answer through the cache as a dense n-vector
// (see Ranked for the cache and error semantics). The vector is built
// fresh from the cached answer on every call and owned by the caller.
func (q *Querier) SingleSource(ctx context.Context, u graph.NodeID) ([]float64, error) {
	r, err := q.Ranked(ctx, u)
	if r == nil {
		return nil, err
	}
	return r.Dense(), err
}

// TopK answers a top-k query through the cache: a hit reads a prefix of
// the cached answer.
func (q *Querier) TopK(ctx context.Context, u graph.NodeID, k int) ([]ScoredNode, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: top-k requires k >= 1, got %d", k)
	}
	r, err := q.Ranked(ctx, u)
	if err != nil {
		return nil, err
	}
	return r.TopK(k), nil
}

// Stats reports cache effectiveness.
func (q *Querier) Stats() (hits, misses int64, cached int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.hits, q.misses, q.order.Len()
}

// SharedFlights reports how many queries joined another goroutine's
// in-flight computation instead of running their own.
func (q *Querier) SharedFlights() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shared
}

// CacheStats is a point-in-time snapshot of every cache counter —
// the serving plane exports it on /stats and /metrics so the per-node
// cache's effectiveness can be compared against other tiers'.
type CacheStats struct {
	Hits          int64         // answers served from the cache
	Misses        int64         // answers computed (includes stale-snapshot serves)
	Shared        int64         // callers that joined another goroutine's flight
	Evictions     int64         // entries dropped by LRU capacity pressure
	Invalidations Invalidations // entries dropped because the graph moved
	Cached        int           // answers currently held
}

// Invalidations counts the cached answers the graph's moves dropped, by
// cause.
type Invalidations struct {
	Touched   int64 // a reported batch had an op endpoint in the entry's read set
	Unbounded int64 // a reported batch met an entry without a bounded read set
	Flush     int64 // a move the stream did not explain (or any move, without one) emptied the cache
}

// Total is the number of invalidated answers over every cause.
func (i Invalidations) Total() int64 { return i.Touched + i.Unbounded + i.Flush }

// CacheStats returns all cache counters in one consistent read.
func (q *Querier) CacheStats() CacheStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return CacheStats{
		Hits:          q.hits,
		Misses:        q.misses,
		Shared:        q.shared,
		Evictions:     q.evictions,
		Invalidations: q.inv,
		Cached:        q.order.Len(),
	}
}
