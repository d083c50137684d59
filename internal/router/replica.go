package router

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/graph"
	"probesim/internal/qtrace"
)

// member is one replica of the router's set: an engine plus the
// router's book-keeping about whether it can still be fed writes in
// order.
//
// current means the member has taken every batch the router has issued
// (in order) and may therefore receive direct write broadcasts; a member
// that misses a batch is demoted and only re-admitted after the catch-up
// path replays the gap from the replay ring. divergent is terminal for
// the automatic path: the router cannot prove the member's state matches
// the fleet (e.g. it applied a batch another member rejected), so only
// an operator restore clears it. All fields are atomics so the
// stats path can read them without taking the control-plane mutex that
// a slow Apply broadcast may be holding.
type member struct {
	eng       ShardEngine
	current   atomic.Bool
	divergent atomic.Bool
	acked     atomic.Uint64 // highest batch id known decided by this member
	lagErr    atomic.Pointer[string]
}

func (m *member) setLag(msg string) {
	m.current.Store(false)
	m.lagErr.Store(&msg)
}

func (m *member) markDivergent(msg string) {
	m.divergent.Store(true)
	m.setLag(msg)
}

func (m *member) clearLag() {
	m.lagErr.Store(nil)
}

func (m *member) lagErrText() string {
	if s := m.lagErr.Load(); s != nil {
		return *s
	}
	return ""
}

// serving reports whether a read should start at the member: it is
// current and its engine reports itself healthy (RemoteEngine exposes
// Healthy; engines without it are assumed reachable).
func (m *member) serving() bool {
	if h, ok := m.eng.(interface{ Healthy() bool }); ok && !h.Healthy() {
		return false
	}
	return m.current.Load()
}

// serving returns the positions of the members a read may start at.
func (r *Router) serving() []int {
	var out []int
	for i, m := range r.members {
		if m.serving() {
			out = append(out, i)
		}
	}
	return out
}

// readOrder returns the members to try for one read, in member order
// from first around the set: serving members first (they can serve the
// pinned version without a detour), then the rest as last resorts — a
// demoted member may still answer a read for a generation it holds.
func (r *Router) readOrder(first int) []ShardEngine {
	order := make([]ShardEngine, 0, len(r.members))
	var backups []ShardEngine
	for i := range r.members {
		m := r.members[(first+i)%len(r.members)]
		if m.serving() {
			order = append(order, m.eng)
		} else {
			backups = append(backups, m.eng)
		}
	}
	return append(order, backups...)
}

// HedgePolicy controls speculative duplicate reads. When enabled, a
// shard RPC that has not answered within the set's p99-derived delay
// is raced against a second replica; the first answer wins and the
// loser is canceled. Delay is clamped to [MinDelay, MaxDelay]; before
// enough samples exist to estimate p99, MaxDelay is used.
type HedgePolicy struct {
	Enabled  bool
	MinDelay time.Duration
	MaxDelay time.Duration
}

// latencyTracker keeps a small ring of recent successful read latencies
// and a cached p99 over them, recomputed every few observations so the
// read path never sorts under load.
type latencyTracker struct {
	mu   sync.Mutex
	ring [latencyWindow]int64
	n    int
	idx  int
	obs  int

	p99ns atomic.Int64
}

const (
	latencyWindow    = 128
	latencyRecompute = 16
)

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.idx] = int64(d)
	t.idx = (t.idx + 1) % latencyWindow
	if t.n < latencyWindow {
		t.n++
	}
	t.obs++
	if t.obs >= latencyRecompute {
		t.obs = 0
		buf := make([]int64, t.n)
		copy(buf, t.ring[:t.n])
		slices.Sort(buf)
		t.p99ns.Store(buf[len(buf)*99/100])
	}
	t.mu.Unlock()
}

func (t *latencyTracker) p99() time.Duration { return time.Duration(t.p99ns.Load()) }

// hedgeDelay derives the speculative-read delay from observed latency.
func (r *Router) hedgeDelay(hp *HedgePolicy) time.Duration {
	d := r.lat.p99()
	if d <= 0 {
		return hp.MaxDelay // cold start: hedge only against the ceiling
	}
	return min(max(d, hp.MinDelay), hp.MaxDelay)
}

// batchRing remembers the last N identified batches (by id) so a member
// that missed some can be replayed in order. A rejected batch stays in
// it as sent: a lagging member replaying it rejects it just as the live
// members did, which advances its watermark past the id and leaves its
// lists as they were.
type batchRing struct {
	entries []ringEntry
}

type ringEntry struct {
	id  uint64
	ops []graph.EdgeOp
}

const defaultReplayHorizon = 1024

func newBatchRing(n int) *batchRing { return &batchRing{entries: make([]ringEntry, n)} }

func (b *batchRing) put(id uint64, ops []graph.EdgeOp) {
	b.entries[id%uint64(len(b.entries))] = ringEntry{id: id, ops: ops}
}

// get reports the ops recorded for id; ids start at 1, so a zero slot
// never aliases a real batch.
func (b *batchRing) get(id uint64) ([]graph.EdgeOp, bool) {
	e := b.entries[id%uint64(len(b.entries))]
	if e.id != id {
		return nil, false
	}
	return e.ops, true
}

// retryableRead reports whether a read failure on one replica may
// succeed on another: transport loss, a backoff-window fail-fast, an
// engine that is still recovering, or a generation another replica may
// still retain. Semantic errors and the caller's own context errors are
// never retried.
func retryableRead(err error) bool {
	return errors.Is(err, ErrTransport) || errors.Is(err, ErrUnavailable) ||
		errors.Is(err, ErrRetiredGeneration)
}

// attempt is one replica's answer inside failoverRead.
type attempt[T any] struct {
	idx    int
	val    T
	err    error
	hedged bool
	dur    time.Duration
}

// engineLabel names an engine for span annotations: remote engines
// report their dial address, in-process ones a fixed tag.
func engineLabel(e ShardEngine) string {
	if a, ok := e.(interface{ Addr() string }); ok {
		return a.Addr()
	}
	return "local"
}

// failoverRead runs one read against the replica set, starting at member
// first, with failover and optional hedging. The first successful answer
// wins; a retryable failure moves on to the next replica in readOrder;
// losers are canceled through the shared child context. The results
// channel is buffered to the number of launchable attempts, so a loser
// finishing after the winner returns never blocks — attempt goroutines
// cannot leak.
//
// When the query is traced, every attempt gets its own span named op,
// annotated with the replica and whether it was the primary, a
// failover, or a hedge; the span closes with outcome=ok/error, and
// attempts still in flight when the call returns (the hedge loser, or
// stragglers after a non-retryable failure) close as outcome=canceled.
//
// It is a package function rather than a method because methods cannot
// have type parameters.
func failoverRead[T any](r *Router, ctx context.Context, first int, op string, fn func(context.Context, ShardEngine) (T, error)) (T, error) {
	tr, parent := qtrace.FromContext(ctx)
	span := func(i int, eng ShardEngine, hedged bool) qtrace.SpanRef {
		if tr == nil {
			return 0
		}
		kind := "primary"
		switch {
		case hedged:
			kind = "hedge"
		case i > 0:
			kind = "failover"
		}
		ref := tr.StartSpan(op, parent)
		tr.Annotate(ref, "kind="+kind+",replica="+engineLabel(eng))
		return ref
	}
	if len(r.members) == 1 {
		eng := r.members[0].eng
		ref := span(0, eng, false)
		start := time.Now()
		v, err := fn(qtrace.ContextWithSpan(ctx, ref), eng)
		if err == nil {
			r.lat.observe(time.Since(start))
			tr.EndSpanAnnot(ref, "outcome=ok")
		} else {
			tr.EndSpanAnnot(ref, "outcome=error")
		}
		return v, err
	}
	order := r.readOrder(first)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attempt[T], len(order))
	// refs/open are touched only by the selecting goroutine below.
	refs := make([]qtrace.SpanRef, len(order))
	open := make([]bool, len(order))
	defer func() {
		if tr == nil {
			return
		}
		for i, ref := range refs {
			if open[i] {
				tr.EndSpanAnnot(ref, "outcome=canceled")
			}
		}
	}()
	settle := func(a attempt[T], annot string) {
		if tr != nil && open[a.idx] {
			open[a.idx] = false
			tr.EndSpanAnnot(refs[a.idx], annot)
		}
	}
	launch := func(i int, hedged bool) {
		eng := order[i]
		refs[i] = span(i, eng, hedged)
		open[i] = tr != nil
		actx := qtrace.ContextWithSpan(cctx, refs[i])
		go func() {
			start := time.Now()
			v, err := fn(actx, eng)
			results <- attempt[T]{idx: i, val: v, err: err, hedged: hedged, dur: time.Since(start)}
		}()
	}
	var hedgeC <-chan time.Time
	if hp := r.hedge.Load(); hp != nil && hp.Enabled {
		timer := time.NewTimer(r.hedgeDelay(hp))
		defer timer.Stop()
		hedgeC = timer.C
	}
	launch(0, false)
	next, inflight := 1, 1
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil // at most one hedge per call
			if next < len(order) {
				r.hedgesSent.Add(1)
				launch(next, true)
				next++
				inflight++
			}
		case a := <-results:
			if a.err == nil {
				r.lat.observe(a.dur)
				if a.hedged {
					r.hedgesWon.Add(1)
				}
				settle(a, "outcome=ok")
				return a.val, nil
			}
			inflight--
			settle(a, "outcome=error")
			if ctx.Err() != nil || !retryableRead(a.err) {
				// The caller's own deadline/cancellation, or a semantic
				// failure every replica would repeat: surface it as-is.
				return a.val, a.err
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if next < len(order) {
				r.failovers.Add(1)
				launch(next, false)
				next++
				inflight++
			} else if inflight == 0 {
				var zero T
				return zero, firstErr
			}
		}
	}
}
