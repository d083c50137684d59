package tenant

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTenant(name string, c Class) *Tenant {
	return &Tenant{Name: name, Class: c, Config: Defaults(c)}
}

func TestFairQueueFastPath(t *testing.T) {
	q := NewFairQueue(2)
	ten := newTenant("a", DegradeTolerant)
	r1, err := q.Acquire(context.Background(), ten)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Acquire(context.Background(), ten)
	if err != nil {
		t.Fatal(err)
	}
	if ten.Queued.Load() != 0 {
		t.Fatal("uncontended acquires queued")
	}
	r1()
	r1() // release is idempotent
	r2()
	if q.QueuedLen() != 0 {
		t.Fatal("waiters left behind")
	}
}

// TestFairQueueDepthZeroNeverWaits: a depth-0 tenant (the untenanted
// server's default) takes a free slot, but with every slot busy it is
// refused at once instead of queued.
func TestFairQueueDepthZeroNeverWaits(t *testing.T) {
	q := NewFairQueue(1)
	solo := &Tenant{Name: DefaultName, Config: Config{Weight: 1}}
	rel, err := q.Acquire(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Acquire(context.Background(), solo); err != ErrQueueFull {
		t.Fatalf("second acquire: %v, want ErrQueueFull", err)
	}
	if solo.Queued.Load() != 0 || q.QueuedLen() != 0 {
		t.Fatal("depth-0 tenant queued")
	}
	rel()
	if _, err := q.Acquire(context.Background(), solo); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestFairQueueUnboundedCountsInflight: capacity 0 grants every acquire
// at once, and Inflight follows the grants and releases.
func TestFairQueueUnboundedCountsInflight(t *testing.T) {
	q := NewFairQueue(0)
	ten := &Tenant{Name: DefaultName, Config: Config{Weight: 1}}
	rels := make([]func(), 1000)
	for i := range rels {
		r, err := q.Acquire(context.Background(), ten)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		rels[i] = r
		if got := q.Inflight(); got != i+1 {
			t.Fatalf("inflight after %d grants = %d", i+1, got)
		}
	}
	for i, r := range rels {
		r()
		r() // idempotent: a second release frees nothing
		if got, want := q.Inflight(), len(rels)-i-1; got != want {
			t.Fatalf("inflight after %d releases = %d, want %d", i+1, got, want)
		}
	}
}

func TestFairQueueOwnQueueFull(t *testing.T) {
	q := NewFairQueue(1)
	a := newTenant("a", LatencyStrict) // queue depth 8
	rel, err := q.Acquire(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	// Fill a's queue.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < a.Config.QueueDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := q.Acquire(ctx, a); err == nil {
				r()
			}
		}()
	}
	waitFor(t, func() bool { return q.TenantQueuedLen(a) == a.Config.QueueDepth })
	if _, err := q.Acquire(context.Background(), a); err != ErrQueueFull {
		t.Fatalf("over-depth acquire: %v, want ErrQueueFull", err)
	}
	// Another tenant's queue is NOT full: it queues rather than rejects.
	b := newTenant("b", ThroughputBatch)
	done := make(chan error, 1)
	go func() {
		r, err := q.Acquire(ctx, b)
		if err == nil {
			r()
		}
		done <- err
	}()
	waitFor(t, func() bool { return q.TenantQueuedLen(b) == 1 })
	rel() // drain: every waiter runs and releases in turn
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	if q.QueuedLen() != 0 {
		t.Fatal("waiters left behind")
	}
}

func TestFairQueueContextExpiryWhileQueued(t *testing.T) {
	q := NewFairQueue(1)
	a := newTenant("a", DegradeTolerant)
	rel, err := q.Acquire(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Acquire(ctx, a); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire past deadline: %v", err)
	}
	if q.TenantQueuedLen(a) != 0 {
		t.Fatal("expired waiter not removed")
	}
	rel()
	// The abandoned waiter must not have consumed the slot.
	r2, err := q.Acquire(context.Background(), a)
	if err != nil {
		t.Fatalf("slot leaked to an expired waiter: %v", err)
	}
	r2()
}

// TestFairQueueWeightedShare drains a contended queue completely: no
// grant is lost and no waiter is stranded regardless of weight skew.
func TestFairQueueWeightedShare(t *testing.T) {
	q := NewFairQueue(1)
	heavy := newTenant("strict", DegradeTolerant)
	heavy.Config.Weight, heavy.Config.QueueDepth = 4, 64
	light := newTenant("batch", DegradeTolerant)
	light.Config.Weight, light.Config.QueueDepth = 1, 64

	blocker, err := q.Acquire(context.Background(), heavy)
	if err != nil {
		t.Fatal(err)
	}
	var heavyGrants, lightGrants atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	const perTenant = 40
	for i := 0; i < perTenant; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if r, err := q.Acquire(ctx, heavy); err == nil {
				heavyGrants.Add(1)
				r()
			}
		}()
		go func() {
			defer wg.Done()
			if r, err := q.Acquire(ctx, light); err == nil {
				lightGrants.Add(1)
				r()
			}
		}()
	}
	waitFor(t, func() bool { return q.QueuedLen() == 2*perTenant })
	blocker()
	wg.Wait()
	if heavyGrants.Load() != perTenant || lightGrants.Load() != perTenant {
		t.Fatalf("grants lost: heavy %d light %d", heavyGrants.Load(), lightGrants.Load())
	}
}

// TestFairQueueStrictNotStarved: a saturating batch tenant keeps the
// server full, and a latency-strict arrival still gets a slot within a
// bounded number of releases (one ring rotation), not after the whole
// backlog.
func TestFairQueueStrictNotStarved(t *testing.T) {
	q := NewFairQueue(1)
	batch := newTenant("batch", ThroughputBatch)
	batch.Config.QueueDepth = 64
	strict := newTenant("strict", LatencyStrict)

	rel, err := q.Acquire(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	const backlog = 32
	batchDone := make(chan struct{}, backlog)
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := q.Acquire(ctx, batch); err == nil {
				batchDone <- struct{}{}
				r()
			}
		}()
	}
	waitFor(t, func() bool { return q.TenantQueuedLen(batch) == backlog })

	strictGranted := make(chan struct{})
	var aheadOfStrict atomic.Int64
	go func() {
		r, err := q.Acquire(ctx, strict)
		if err != nil {
			t.Errorf("strict acquire: %v", err)
			close(strictGranted)
			return
		}
		// Count while still holding the slot: with capacity 1, every batch
		// grant that preceded this one has already sent to batchDone (send
		// happens before its release, which happens before this grant),
		// and none can land after until r(). Reading from the main
		// goroutine instead would race the post-strict drain.
		aheadOfStrict.Store(int64(len(batchDone)))
		close(strictGranted)
		r()
	}()
	waitFor(t, func() bool { return q.TenantQueuedLen(strict) == 1 })

	rel() // start the drain
	<-strictGranted
	// The strict tenant must have been granted near the front: DRR bounds
	// its wait to one quantum of the batch tenant (weight 1), i.e. a
	// single batch grant between the blocker's release and the strict
	// grant.
	if n := aheadOfStrict.Load(); n > 1 {
		t.Fatalf("strict tenant waited behind %d of %d batch queries", n, backlog)
	}
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
