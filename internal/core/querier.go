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
// query results keyed by (query node, snapshot version) so that repeated
// queries on an unchanged graph are free, while any graph mutation
// invalidates every cached answer automatically (a fresh snapshot carries
// a fresh version).
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

	mu      sync.Mutex
	entries map[graph.NodeID]*list.Element
	order   *list.List // front = most recent
	version uint64
	flights map[graph.NodeID]*flight

	hits, misses, shared, evictions int64
}

type cacheEntry struct {
	node   graph.NodeID
	ranked *Ranked
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
	return &Querier{
		ex:       ex,
		track:    track,
		capacity: capacity,
		entries:  make(map[graph.NodeID]*list.Element),
		order:    list.New(),
		version:  ex.Snapshot().Version(),
		flights:  make(map[graph.NodeID]*flight),
	}
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
	if v := snap.Version(); v > q.version {
		// The graph moved forward: all cached answers are stale. In-progress
		// flights stay in the map until their owners finish; new misses for
		// the same node under the new version start fresh flights keyed by
		// the node, so we drop the stale ones here.
		q.entries = make(map[graph.NodeID]*list.Element)
		q.order.Init()
		q.flights = make(map[graph.NodeID]*flight)
		q.version = v
	} else if v < q.version {
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
	q.mu.Unlock()

	r, err := SingleSourceRanked(ctx, snap, u, q.ex.opt)
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
	// Only cache if no newer snapshot was published underneath the
	// computation.
	if q.version == version && q.ex.Snapshot().Version() == version {
		if el, ok := q.entries[u]; ok {
			q.order.MoveToFront(el)
		} else {
			el := q.order.PushFront(&cacheEntry{node: u, ranked: r})
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
	Hits      int64 // answers served from the cache
	Misses    int64 // answers computed (includes stale-snapshot serves)
	Shared    int64 // callers that joined another goroutine's flight
	Evictions int64 // entries dropped by LRU capacity pressure
	Cached    int   // answers currently held
}

// CacheStats returns all cache counters in one consistent read.
func (q *Querier) CacheStats() CacheStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return CacheStats{
		Hits:      q.hits,
		Misses:    q.misses,
		Shared:    q.shared,
		Evictions: q.evictions,
		Cached:    q.order.Len(),
	}
}
