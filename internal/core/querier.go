package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"probesim/internal/budget"
	"probesim/internal/graph"
)

// Querier is the "lightweight indexing" idea the paper's conclusion (§7)
// sketches as future work: keep ProbeSim index-free, but memoize recent
// query results so that repeated queries are free while every cached
// answer stays bit-identical to a fresh kernel run on the current graph.
// In the server it is the one store of single-source answers; the
// hot-source tier pins its entries here.
//
// How a write reaches the cache depends on what the Querier can see of
// it. By default the cache is keyed by snapshot version: a fresh
// snapshot carries a fresh version, and the first query to see it
// empties the cache. That is the library's NewQuerier over a mutable
// graph, and a server over a worker fleet. A Querier that Follows its
// source's applied-batch stream (a server over an in-process
// shard.Store) instead keeps each answer's read set (SingleSourceTracked)
// and drops only the answers a batch touched: every other answer carries
// to the new snapshot, because a rerun there would read the same bytes.
// Anything the stream does not explain — a batch rolled back, a move of
// the source it never reported — still empties the cache. A computed
// answer is cached only if it holds at every snapshot the cache may
// serve it on (installLocked).
//
// The cache holds at most Capacity unpinned answers with LRU eviction,
// plus the pinned ones (Pin), which the bound does not count. Each is a
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
	entries map[graph.NodeID]*cacheEntry // every held answer, pinned or not
	order   *list.List                   // the unpinned entries, front = most recent
	// pins is the pinned set; stale maps each pinned source whose answer
	// a move dropped, until it holds one again, to lastID at the drop.
	pins  map[graph.NodeID]struct{}
	stale map[graph.NodeID]uint64
	// Every entry holds at every published version in [version, tail].
	// Without a stream tail == version. With one, tail is the source's
	// version after the last reported batch, whose id is lastID: the
	// batches from version to tail were all reported, and each dropped
	// the entries it touched.
	version, tail, lastID uint64
	// recent holds the reported batches a computation's snapshot may
	// lack, oldest first: those past the published snapshot and past the
	// oldest one a computation in progress runs on (running, by version).
	recent  []appliedBatch
	running map[uint64]int
	flights map[graph.NodeID]*flight

	hits, misses, shared, evictions int64
	inv                             Invalidations
	pinDrops                        int64
}

type cacheEntry struct {
	node   graph.NodeID
	ranked *Ranked
	reads  ReadSet       // nil (unbounded) unless the Querier follows a stream
	el     *list.Element // position in order; nil while pinned
}

// appliedBatch is one batch the stream reported: the source's versions
// before and after it, and a copy of its ops.
type appliedBatch struct {
	from, to uint64
	ops      []graph.EdgeOp
}

// flight is one in-progress single-source computation that concurrent
// misses for the same node attach to.
type flight struct {
	done   chan struct{}
	ranked *Ranked
	err    error
}

// ErrRaced reports a finished Build that was not installed: the graph
// moved while it ran in a way that may change its answer.
var ErrRaced = errors.New("core: answer outdated by a write while it ran")

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
		entries:  make(map[graph.NodeID]*cacheEntry),
		order:    list.New(),
		pins:     make(map[graph.NodeID]struct{}),
		stale:    make(map[graph.NodeID]uint64),
		version:  v,
		tail:     v,
		running:  make(map[uint64]int),
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
// never reported (a rolled-back batch), which empties the cache instead.
func (q *Querier) Follow(version func() uint64) func(id uint64, ops []graph.EdgeOp) {
	q.mu.Lock()
	q.followed = true
	q.mu.Unlock()
	return func(id uint64, ops []graph.EdgeOp) { q.onBatch(id, version(), ops) }
}

// onBatch records one applied batch, which left the source at version to,
// and drops the entries it can change.
func (q *Querier) onBatch(id, to uint64, ops []graph.EdgeOp) {
	q.mu.Lock()
	defer q.mu.Unlock()
	from := to - uint64(len(ops))
	keep := q.ex.Snapshot().Version()
	for v := range q.running {
		keep = min(keep, v)
	}
	i := 0
	for i < len(q.recent) && q.recent[i].to <= keep {
		i++
	}
	q.recent = append(q.recent[i:], appliedBatch{from: from, to: to, ops: slices.Clone(ops)})
	q.lastID = id
	if from != q.tail {
		q.flushLocked(to)
		return
	}
	q.tail = to
	for _, e := range q.entries {
		switch {
		case e.reads == nil:
			q.dropLocked(e, &q.inv.Unbounded)
		case e.reads.Touched(ops):
			q.dropLocked(e, &q.inv.Touched)
		}
	}
}

// dropLocked removes e because the graph moved: an unpinned entry counts
// under cause, a pinned one leaves its source stale.
func (q *Querier) dropLocked(e *cacheEntry, cause *int64) {
	delete(q.entries, e.node)
	if e.el != nil {
		q.order.Remove(e.el)
		*cause++
		return
	}
	q.pinDrops++
	q.stale[e.node] = q.lastID
}

// flushLocked empties the cache and keys it to version v. In-progress
// flights stay in the map until their owners finish; new misses start
// fresh flights, so the stale ones are dropped here.
func (q *Querier) flushLocked(v uint64) {
	for _, e := range q.entries {
		q.dropLocked(e, &q.inv.Flush)
	}
	q.flights = make(map[graph.NodeID]*flight)
	q.version, q.tail = v, v
}

// advanceLocked keys the cache to a snapshot at version v and reports
// whether v is current; an older v leaves the cache as it is.
func (q *Querier) advanceLocked(v uint64) bool {
	switch {
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
		return false
	}
	return true
}

// run computes u's answer on snap with opt outside q.mu (tracked when q
// follows a stream) and installs it if the install rule holds. Called
// with q.mu held, it returns with q.mu held.
func (q *Querier) run(ctx context.Context, snap graph.VersionedView, u graph.NodeID, opt Options) (r *Ranked, installed bool, err error) {
	v := snap.Version()
	q.running[v]++
	followed := q.followed
	q.mu.Unlock()
	var reads ReadSet
	if followed {
		r, reads, err = SingleSourceTracked(ctx, snap, u, opt)
	} else {
		r, err = SingleSourceRanked(ctx, snap, u, opt)
	}
	q.mu.Lock()
	if q.running[v]--; q.running[v] == 0 {
		delete(q.running, v)
	}
	if err == nil {
		// Partial (canceled/budget-stopped) answers go back to the caller
		// for diagnostics but never enter the cache.
		installed = q.installLocked(snap, u, r, reads)
	}
	return r, installed, err
}

// installLocked caches u's answer r, computed on snapshot s0 with read
// set reads, if it holds at every version the cache serves: every batch
// reported since s0 continued the stream and missed reads, and the
// published snapshot is one those batches explain. Without a stream
// that is: nothing was published since s0. A pinned source's answer is
// pinned; any other goes to the front of the LRU order.
func (q *Querier) installLocked(s0 graph.VersionedView, u graph.NodeID, r *Ranked, reads ReadSet) bool {
	at := s0.Version()
	for _, b := range q.recent {
		if b.to <= at {
			continue // s0 has it
		}
		if b.from != at || reads.Touched(b.ops) {
			return false
		}
		at = b.to
	}
	if q.ex.Snapshot().Version() > at {
		return false
	}
	e, ok := q.entries[u]
	if !ok {
		e = &cacheEntry{node: u, ranked: r, reads: reads}
		q.entries[u] = e
	}
	if _, pinned := q.pins[u]; pinned {
		if e.el != nil {
			q.order.Remove(e.el)
			e.el = nil
		}
		delete(q.stale, u)
	} else if e.el != nil {
		q.order.MoveToFront(e.el)
	} else {
		e.el = q.order.PushFront(e)
		q.evictLocked()
	}
	return true
}

// evictLocked drops least recently used unpinned entries past capacity.
func (q *Querier) evictLocked() {
	for q.order.Len() > q.capacity {
		e := q.order.Remove(q.order.Back()).(*cacheEntry)
		delete(q.entries, e.node)
		q.evictions++
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
	if !q.advanceLocked(snap.Version()) {
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
	if e, ok := q.entries[u]; ok {
		if e.el != nil {
			q.order.MoveToFront(e.el)
		}
		q.hits++
		q.mu.Unlock()
		return e.ranked, nil
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
	f.ranked, _, f.err = q.run(ctx, snap, u, q.ex.opt)
	// Deregister BEFORE closing f.done (both under the mutex): a waiter
	// that wakes on the close and re-enters Ranked to retry an
	// owner-specific failure must never re-find this completed flight,
	// or it would spin joining it until the owner won the mutex race.
	if q.flights[u] == f {
		delete(q.flights, u)
	}
	close(f.done)
	q.mu.Unlock()
	return f.ranked, f.err
}

// Pin makes hot the pinned set: a pinned source's answer is exempt from
// the LRU bound, and a miss that computes it installs it pinned. A
// source entering the set whose answer the cache holds is pinned in
// place; one leaving it is demoted to an ordinary LRU entry. Pin returns
// the sources of hot with no held answer, to Build, and the number of
// answers it demoted.
func (q *Querier) Pin(hot []graph.NodeID) (build []graph.NodeID, demoted int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, u := range hot {
		q.pins[u] = struct{}{}
		e, ok := q.entries[u]
		switch {
		case !ok:
			build = append(build, u)
		case e.el != nil:
			q.order.Remove(e.el)
			e.el = nil
		}
	}
	for u := range q.pins {
		if slices.Contains(hot, u) {
			continue
		}
		delete(q.pins, u)
		delete(q.stale, u)
		if e, ok := q.entries[u]; ok && e.el == nil {
			e.el = q.order.PushFront(e)
			demoted++
		}
	}
	q.evictLocked()
	return build, demoted
}

// Build pins u and computes its answer on the published snapshot with
// the executor's options under budget b, installing it by the same rule
// as a miss. It joins no flight and no miss joins it, so no query
// inherits its budget stop or ctx's cancellation. ran is false when u
// already holds a pinned answer or lies outside the graph. A stopped
// build returns its error, a refused one ErrRaced.
func (q *Querier) Build(ctx context.Context, u graph.NodeID, b Budget) (ran bool, err error) {
	snap := q.ex.Snapshot()
	if int(u) >= snap.NumNodes() {
		return false, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	// On a snapshot older than the cache's, the install rule alone
	// decides whether the answer still holds.
	q.advanceLocked(snap.Version())
	q.pins[u] = struct{}{}
	if e, ok := q.entries[u]; ok && e.el == nil {
		return false, nil
	}
	opt := q.ex.opt
	opt.Budget = b
	if _, installed, err := q.run(ctx, snap, u, opt); err != nil || installed {
		return true, err
	}
	return true, ErrRaced
}

// Pinned returns u's pinned answer if it holds at view, moving no cache
// counter and no LRU position.
func (q *Querier) Pinned(view graph.VersionedView, u graph.NodeID) (*Ranked, bool) {
	v := view.Version()
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[u]
	if !ok || e.el != nil || v < q.version || v > q.tail {
		return nil, false
	}
	return e.ranked, true
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

// Stats reports cache effectiveness; cached counts the unpinned answers.
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
// cache's effectiveness can be compared against other tiers'. Unpinned
// and pinned answers are counted apart.
type CacheStats struct {
	Hits          int64         // answers served from the cache
	Misses        int64         // answers computed (includes stale-snapshot serves)
	Shared        int64         // callers that joined another goroutine's flight
	Evictions     int64         // unpinned answers dropped by LRU capacity pressure
	Invalidations Invalidations // unpinned answers dropped because the graph moved
	Cached        int           // unpinned answers held

	Pinned        int    // pinned answers held
	PinnedDropped int64  // pinned answers dropped because the graph moved
	Stale         int    // pinned sources a drop left without an answer
	Lag           uint64 // reported batches since the oldest stale source's drop, counting it (0: none is stale)
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
	cs := CacheStats{
		Hits:          q.hits,
		Misses:        q.misses,
		Shared:        q.shared,
		Evictions:     q.evictions,
		Invalidations: q.inv,
		Cached:        q.order.Len(),
		Pinned:        len(q.entries) - q.order.Len(),
		PinnedDropped: q.pinDrops,
		Stale:         len(q.stale),
	}
	if len(q.stale) > 0 {
		oldest := q.lastID
		for _, id := range q.stale {
			oldest = min(oldest, id)
		}
		cs.Lag = q.lastID - oldest + 1
	}
	return cs
}
