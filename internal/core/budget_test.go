package core

// Cancellation and budget tests for the query kernels: a canceled or
// budget-stopped query must (a) return promptly — bounded by the
// checkpoint interval, not by the remaining walk budget, (b) carry an
// error that unwraps to the right cause, and (c) leave the executor's
// scratch pool clean, so later queries on the same executor stay
// bit-identical to a fresh one. The server-level counterparts live in
// internal/server; these pin the kernel contract directly.

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"probesim/internal/budget"
	"probesim/internal/gen"
	"probesim/internal/graph"
)

// slowOpts makes a query expensive enough (hundreds of ms at least) that
// a 1ms deadline reliably interrupts it mid-flight on any machine.
func slowOpts(mode Mode) Options {
	return Options{Mode: mode, Seed: 1, NumWalks: 2_000_000}
}

func TestSingleSourceDeadlineStopsEveryMode(t *testing.T) {
	g := gen.PreferentialAttachment(5000, 6, 3)
	for _, mode := range allModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			start := time.Now()
			est, err := SingleSource(ctx, g, 1, slowOpts(mode))
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("2M-walk query finished under a 1ms deadline?")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			var be *budget.Error
			if !errors.As(err, &be) {
				t.Fatalf("err %v does not wrap *budget.Error", err)
			}
			// "Within one checkpoint interval": the kernels poll every few
			// trials, so even with scheduling noise the return must be far
			// below the seconds the full budget would cost.
			if elapsed > 2*time.Second {
				t.Fatalf("deadline honored only after %v", elapsed)
			}
			// Partial results accompany the error (possibly empty when the
			// deadline hit before the first checkpoint).
			if err != nil && est != nil && len(est) != g.NumNodes() {
				t.Fatalf("partial estimate has length %d, want %d", len(est), g.NumNodes())
			}
		})
	}
}

func TestSingleSourcePreCanceled(t *testing.T) {
	g := graph.Toy()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	est, err := SingleSource(ctx, g, 0, Options{NumWalks: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if est != nil {
		t.Fatal("pre-canceled query returned a result")
	}
}

func TestWalkBudgetStops(t *testing.T) {
	g := gen.PreferentialAttachment(500, 4, 7)
	opt := Options{Seed: 1, NumWalks: 100000, Budget: Budget{MaxWalks: 500}}
	est, err := SingleSource(context.Background(), g, 1, opt)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("err %v does not wrap *budget.Error", err)
	}
	// Workers overshoot by at most one trial each before noticing.
	if be.Walks < 500 || be.Walks > 500+int64(opt.withDefaults().Workers)+1 {
		t.Fatalf("stopped after %d walks, want ~500", be.Walks)
	}
	if est == nil {
		t.Fatal("budget stop returned no partial estimate")
	}
}

func TestProbeWorkBudgetStops(t *testing.T) {
	g := gen.PreferentialAttachment(2000, 8, 5)
	opt := Options{Mode: ModePruned, Seed: 1, NumWalks: 100000, Budget: Budget{MaxProbeWork: 10000}}
	_, err := SingleSource(context.Background(), g, 1, opt)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	var be *budget.Error
	if !errors.As(err, &be) || be.Work <= 0 {
		t.Fatalf("err = %v, want *budget.Error with positive Work", err)
	}
}

func TestBudgetTimeoutWithoutContextDeadline(t *testing.T) {
	g := gen.PreferentialAttachment(5000, 6, 3)
	opt := slowOpts(ModePruned)
	opt.Budget.Timeout = time.Millisecond
	_, err := SingleSource(context.Background(), g, 1, opt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from Budget.Timeout", err)
	}
}

// TestCancellationLeavesScratchPoolClean is the scratch-corruption check.
// Every query draws from the package's one scratch pool and get does not
// clear, so a stopped query that parked a dirty scratch would corrupt
// every later answer. Reference answers are taken first, then many
// queries are interrupted mid-flight — by deadlines, through the
// executor and the plain TopK, and by MaxWalks and MaxProbeWork trips —
// and the same queries must then return the reference bits.
func TestCancellationLeavesScratchPoolClean(t *testing.T) {
	g := gen.PreferentialAttachment(800, 5, 13)
	opt := Options{Seed: 5, NumWalks: 4000, Workers: 3}
	ex := NewExecutor(g, opt)
	sources := []graph.NodeID{1, 17, 99, 250}
	wantEst := make([][]float64, len(sources))
	wantTop := make([][]ScoredNode, len(sources))
	for i, u := range sources {
		var err error
		if wantEst[i], err = ex.SingleSource(context.Background(), u); err != nil {
			t.Fatal(err)
		}
		if wantTop[i], err = TopK(context.Background(), g, u, 10, opt); err != nil {
			t.Fatal(err)
		}
	}

	// Mixed timeouts from "dead on arrival" to "might just finish": the
	// point is to interrupt queries at many different places, not that
	// every one is interrupted (the bit-identical check below is the
	// actual assertion).
	canceled := 0
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
		u := graph.NodeID(i % 100)
		if _, err := ex.SingleSource(ctx, u); err != nil {
			canceled++
		}
		if _, err := TopK(ctx, g, u, 10, opt); err != nil {
			canceled++
		}
		cancel()
	}
	if canceled == 0 {
		t.Fatal("no query was ever interrupted; the test exercised nothing")
	}
	for _, b := range []Budget{{MaxWalks: 7}, {MaxWalks: 900}, {MaxProbeWork: 300}, {MaxProbeWork: 3000}} {
		capped := opt
		capped.Budget = b
		if _, err := SingleSource(context.Background(), g, sources[0], capped); !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %+v: err = %v, want ErrBudget", b, err)
		}
		if _, err := TopK(context.Background(), g, sources[0], 10, capped); !errors.Is(err, ErrBudget) {
			t.Fatalf("budget %+v: top-k err = %v, want ErrBudget", b, err)
		}
	}

	for i, u := range sources {
		got, err := ex.SingleSource(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		for v := range wantEst[i] {
			if math.Float64bits(got[v]) != math.Float64bits(wantEst[i][v]) {
				t.Fatalf("query %d: scratch corruption after interrupted queries: est[%d] = %v, want %v", u, v, got[v], wantEst[i][v])
			}
		}
		top, err := TopK(context.Background(), g, u, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != len(wantTop[i]) {
			t.Fatalf("query %d: top-k has %d entries after interrupted queries, want %d", u, len(top), len(wantTop[i]))
		}
		for j := range top {
			if top[j] != wantTop[i][j] {
				t.Fatalf("query %d: scratch corruption after interrupted queries: top[%d] = %v, want %v", u, j, top[j], wantTop[i][j])
			}
		}
	}
}

// TestConcurrentCancellationUnderRace drives pooled queries with mixed
// deadlines from many goroutines; run with -race (CI does) this is the
// data-race proof for the meter seam and early scratch returns.
func TestConcurrentCancellationUnderRace(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 29)
	ex := NewExecutor(g, Options{Seed: 3, NumWalks: 2000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if w%2 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i)*50*time.Microsecond)
					_, _ = ex.SingleSource(ctx, graph.NodeID((w+i)%400))
					cancel()
				} else if _, err := ex.SingleSource(context.Background(), graph.NodeID((w+i)%400)); err != nil {
					t.Errorf("unbounded query failed: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTopKProgressiveCancellation(t *testing.T) {
	g := gen.PreferentialAttachment(5000, 6, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	opt := Options{Seed: 1, EpsA: 0.0001} // huge static budget
	start := time.Now()
	_, stats, err := TopKProgressive(ctx, g, 1, 5, opt)
	if err == nil {
		t.Fatal("progressive query finished under a 1ms deadline?")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
	if stats.Walks >= stats.BudgetWalks {
		t.Fatalf("stats claim the full budget ran: %+v", stats)
	}
}

func TestTopKPartialRankingOnBudget(t *testing.T) {
	g := gen.PreferentialAttachment(500, 4, 7)
	opt := Options{Seed: 1, NumWalks: 100000, Budget: Budget{MaxWalks: 1000}}
	top, err := TopK(context.Background(), g, 1, 5, opt)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if len(top) == 0 {
		t.Fatal("budget-stopped top-k returned no partial ranking")
	}
}

func TestUnbudgetedQueryUnchanged(t *testing.T) {
	// The refactor must not perturb un-budgeted results: same seed, same
	// answer as a direct computation with a cancelable (but never
	// canceled) context.
	g := gen.ErdosRenyi(300, 1200, 17)
	opt := Options{Seed: 11, NumWalks: 800}
	a, err := SingleSource(context.Background(), g, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := SingleSource(ctx, g, 4, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("metered-but-unbounded query diverged at %d: %v vs %v", v, a[v], b[v])
		}
	}
}

// TestQuerierFlightOwnerCancellationDoesNotPoisonWaiters: a miss owned
// by a request with a tight deadline must not hand its cancellation
// error to a patient request that joined the same single-flight.
func TestQuerierFlightOwnerCancellationDoesNotPoisonWaiters(t *testing.T) {
	g := gen.PreferentialAttachment(2000, 5, 17)
	q := NewQuerier(g, Options{Seed: 1, NumWalks: 200000}, 4)
	ownerStarted := make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		close(ownerStarted)
		_, err := q.SingleSource(ctx, 7)
		ownerDone <- err
	}()
	<-ownerStarted
	time.Sleep(500 * time.Microsecond) // let the owner register its flight
	scores, err := q.SingleSource(context.Background(), 7)
	if err != nil {
		t.Fatalf("patient waiter inherited an error: %v", err)
	}
	if len(scores) != g.NumNodes() {
		t.Fatalf("waiter got %d scores, want %d", len(scores), g.NumNodes())
	}
	if err := <-ownerDone; err == nil {
		t.Log("owner finished inside its deadline (fast machine); waiter path untested this run")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("owner err = %v, want DeadlineExceeded", err)
	}
}

// TestQuerierWaiterHonorsOwnDeadline: a waiter must not wait on a
// shared flight past its own context deadline.
func TestQuerierWaiterHonorsOwnDeadline(t *testing.T) {
	g := gen.PreferentialAttachment(3000, 5, 17)
	q := NewQuerier(g, Options{Seed: 1, NumWalks: 2_000_000}, 4)
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		close(started)
		_, _ = q.SingleSource(ctx, 7)
	}()
	<-started
	time.Sleep(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := q.SingleSource(ctx, 7)
	if err == nil {
		t.Fatal("waiter with 1ms deadline got an answer from a 200ms flight")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("waiter stuck %v past its deadline", elapsed)
	}
	<-done
}

// TestDeadlineOn100kGraph pins the PR acceptance criterion literally: a
// query with a 1ms deadline on a 100k-node graph returns a deadline
// error within one checkpoint interval (microseconds of work — asserted
// here with generous scheduling headroom).
func TestDeadlineOn100kGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node graph build in -short mode")
	}
	g := gen.PreferentialAttachment(100_000, 8, 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SingleSource(ctx, g, 1, Options{Seed: 1, EpsA: 0.1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("1ms deadline honored only after %v", elapsed)
	}
	t.Logf("1ms deadline on 100k nodes honored in %v", elapsed)
}

// TestBudgetStopNeverInflatesScores pins the partial-result sanity the
// progressive contract depends on: a probe abandoned mid-expansion must
// contribute nothing, so no returned estimate can exceed 1 (a SimRank
// similarity) no matter where the budget tripped.
func TestBudgetStopNeverInflatesScores(t *testing.T) {
	g := gen.PreferentialAttachment(400, 4, 21)
	tripped := 0
	for _, work := range []int64{500, 3000, 20000} {
		opt := Options{Seed: 1, NumWalks: 100000, Budget: Budget{MaxProbeWork: work}}
		// A generous budget may let the progressive run stop legitimately
		// (converged radius) before tripping; score sanity must hold
		// either way.
		top, _, err := TopKProgressive(context.Background(), g, 1, 5, opt)
		if errors.Is(err, ErrBudget) {
			tripped++
		} else if err != nil {
			t.Fatalf("work=%d: err = %v", work, err)
		}
		for _, s := range top {
			if s.Score > 1 {
				t.Fatalf("work=%d: budget-stopped ranking has score %v > 1 for node %d", work, s.Score, s.Node)
			}
		}
		est, err := SingleSource(context.Background(), g, 1, opt)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("work=%d: single-source err = %v, want ErrBudget", work, err)
		}
		for v, s := range est {
			if s > 1 {
				t.Fatalf("work=%d: partial estimate[%d] = %v > 1", work, v, s)
			}
		}
	}
	if tripped == 0 {
		t.Fatal("no progressive run ever tripped its work budget; the test exercised nothing")
	}
}

// TestQuerierSharedBudgetFailureIsShared: a flight that dies on the
// shared executor budget hands the SAME failure to its waiters — they
// must not re-run a deterministically doomed computation each.
func TestQuerierSharedBudgetFailureIsShared(t *testing.T) {
	g := gen.PreferentialAttachment(2000, 5, 17)
	// The doomed query must run long enough (hundreds of ms) that the
	// later callers overlap it and join its flight rather than running
	// one after another.
	q := NewQuerier(g, Options{Seed: 1, NumWalks: 10_000_000, Budget: Budget{MaxWalks: 1_000_000}}, 4)
	const waiters = 4
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := q.SingleSource(context.Background(), 7)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("err = %v, want shared ErrBudget", err)
		}
	}
	// If each waiter had recomputed, misses would be ~waiters; shared
	// flights mean one computation total (all callers raced onto one
	// flight, or at worst a couple due to start skew).
	_, misses, _ := q.Stats()
	if misses > 2 {
		t.Fatalf("%d misses for %d concurrent identical doomed queries; budget failure not shared", misses, waiters)
	}
}
