package tenant

// Deficit-weighted fair admission. The queue guards a fixed number of
// execution slots (the server's MaxInflight; 0 = unbounded). While slots
// are free and nobody waits, Acquire is a mutex-protected counter bump —
// the uncontended fast path. Once slots run out, each tenant gets a small
// bounded FIFO of waiters and a place in a round-robin ring; every
// released slot runs one step of deficit round robin (quantum = the
// tenant's weight, unit cost per query), so over any contention window
// tenants are granted slots in proportion to their weights. A
// throughput-batch tenant with a deep queue can saturate the server all
// day and a latency-strict tenant's queries still reach the front
// within one ring rotation. The ONLY overload answer a tenant sees is
// its own queue filling (ErrQueueFull -> 503 + Retry-After); another
// tenant's backlog never rejects it. A tenant with queue depth 0 never
// waits: with every slot busy its Acquire fails at once, which is how
// the untenanted server keeps its immediate-503 contract.

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueFull reports that every slot is busy and the acquiring
// tenant's own wait queue is at capacity (for a depth-0 tenant, always).
var ErrQueueFull = errors.New("tenant: wait queue full")

type waiter struct {
	grant   chan struct{} // closed exactly once when a slot is granted
	granted bool          // written under FairQueue.mu
}

// tq is one tenant's queue state inside the ring.
type tq struct {
	t       *Tenant
	waiters []*waiter
	deficit int
	inRing  bool
}

// FairQueue is the deficit-weighted slot dispatcher. Safe for
// concurrent use.
type FairQueue struct {
	mu       sync.Mutex
	capacity int // <= 0: unbounded
	inflight int
	tenants  map[*Tenant]*tq
	ring     []*tq // rotation order; only tenants with waiters are in it
}

// NewFairQueue builds a queue over capacity execution slots; capacity
// <= 0 means unbounded (every Acquire is granted at once, and Inflight
// still counts the holders).
func NewFairQueue(capacity int) *FairQueue {
	return &FairQueue{capacity: capacity, tenants: make(map[*Tenant]*tq)}
}

// freeLocked reports whether a slot is free.
func (q *FairQueue) freeLocked() bool {
	return q.capacity <= 0 || q.inflight < q.capacity
}

// Acquire obtains an execution slot for t, waiting in t's own bounded
// queue when the server is saturated. It returns a release function on
// success; ErrQueueFull when t's queue is at capacity; or the context
// error when ctx expires while queued. Waiting time counts against the
// request's deadline — the caller applies its timeout before admission.
func (q *FairQueue) Acquire(ctx context.Context, t *Tenant) (func(), error) {
	q.mu.Lock()
	if q.freeLocked() && len(q.ring) == 0 {
		// Fast path: free slot and no one queued anywhere. Skipping the
		// queue while waiters exist would let a lucky arrival overtake the
		// rotation, so it is gated on an empty ring, not just a free slot.
		q.inflight++
		q.mu.Unlock()
		return q.releaseFunc(), nil
	}
	tqe := q.tenants[t]
	if tqe == nil {
		tqe = &tq{t: t}
		q.tenants[t] = tqe
	}
	if len(tqe.waiters) >= t.Config.QueueDepth {
		q.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{grant: make(chan struct{})}
	tqe.waiters = append(tqe.waiters, w)
	if !tqe.inRing {
		tqe.inRing = true
		tqe.deficit = 0
		q.ring = append(q.ring, tqe)
	}
	t.Queued.Add(1)
	// A slot may be free even though the ring is non-empty (we just
	// joined it); dispatch before sleeping so a single waiter never
	// stalls waiting for a release that already happened.
	q.dispatchLocked()
	q.mu.Unlock()

	select {
	case <-w.grant:
		return q.releaseFunc(), nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.granted {
			// Lost the race: the grant landed between ctx firing and the
			// lock. The slot is ours and must go back.
			q.inflight--
			q.dispatchLocked()
			q.mu.Unlock()
			return nil, ctx.Err()
		}
		q.removeWaiterLocked(tqe, w)
		q.mu.Unlock()
		return nil, ctx.Err()
	}
}

// releaseFunc returns the idempotent slot release.
func (q *FairQueue) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			q.mu.Lock()
			q.inflight--
			q.dispatchLocked()
			q.mu.Unlock()
		})
	}
}

// dispatchLocked grants free slots to queued waiters by deficit round
// robin: the ring head earns its weight in deficit each pass and spends
// one deficit per granted query; an emptied tenant leaves the ring.
func (q *FairQueue) dispatchLocked() {
	for q.freeLocked() && len(q.ring) > 0 {
		head := q.ring[0]
		if len(head.waiters) == 0 {
			head.inRing = false
			head.deficit = 0
			q.ring = q.ring[1:]
			continue
		}
		if head.deficit < 1 {
			head.deficit += head.t.Config.Weight
			if head.deficit < 1 {
				head.deficit = 1 // weight <= 0 must still make progress
			}
			// Earned its quantum; spend it before rotating so a lone
			// tenant doesn't spin the ring.
		}
		for q.freeLocked() && head.deficit >= 1 && len(head.waiters) > 0 {
			w := head.waiters[0]
			head.waiters = head.waiters[1:]
			head.deficit--
			w.granted = true
			q.inflight++
			close(w.grant)
		}
		if len(head.waiters) == 0 {
			head.inRing = false
			head.deficit = 0
			q.ring = q.ring[1:]
			continue
		}
		if head.deficit < 1 {
			// Quantum spent with waiters left: rotate to the tail.
			q.ring = append(q.ring[1:], head)
		}
		// deficit >= 1 with a full house: slots ran out; loop exits.
	}
}

// removeWaiterLocked drops an abandoned (ctx-expired) waiter.
func (q *FairQueue) removeWaiterLocked(tqe *tq, w *waiter) {
	for i, cand := range tqe.waiters {
		if cand == w {
			tqe.waiters = append(tqe.waiters[:i], tqe.waiters[i+1:]...)
			break
		}
	}
	// Leaving an empty tenant in the ring is fine: dispatch skips and
	// removes it on the next pass.
}

// QueuedLen returns how many requests are waiting across all tenants —
// the pressure signal behind the load-derived Retry-After hint.
func (q *FairQueue) QueuedLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, tqe := range q.tenants {
		n += len(tqe.waiters)
	}
	return n
}

// TenantQueuedLen returns how many of t's requests are waiting.
func (q *FairQueue) TenantQueuedLen(t *Tenant) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if tqe := q.tenants[t]; tqe != nil {
		return len(tqe.waiters)
	}
	return 0
}

// Inflight returns how many slots are held now — the foreground
// pressure signal behind the degrade watermark and the hot tier's yield.
func (q *FairQueue) Inflight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inflight
}
