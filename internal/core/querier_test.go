package core

import (
	"context"
	"sync"
	"testing"

	"probesim/internal/graph"
	"probesim/internal/xrand"
)

func querierGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := xrand.New(77)
	return randomGraph(rng, 40, 200)
}

func TestQuerierCachesHits(t *testing.T) {
	g := querierGraph(t)
	q := NewQuerier(g, Options{NumWalks: 300, Seed: 1}, 4)
	a, err := q.Ranked(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Ranked(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second query did not hit the cache")
	}
	hits, misses, cached := q.Stats()
	if hits != 1 || misses != 1 || cached != 1 {
		t.Fatalf("stats = %d hits %d misses %d cached", hits, misses, cached)
	}
}

// TestQuerierPinsHeldAnswerInPlace checks that pinning a source whose
// answer a live miss already cached moves that answer into the pinned
// set: Pin asks for no build, and Pinned returns the cached answer
// itself, which the LRU no longer counts.
func TestQuerierPinsHeldAnswerInPlace(t *testing.T) {
	g := querierGraph(t)
	q := NewQuerier(g, Options{NumWalks: 300, Seed: 1}, 4)
	r, err := q.Ranked(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if build, demoted := q.Pin([]graph.NodeID{3}); len(build) != 0 || demoted != 0 {
		t.Fatalf("Pin of a held answer: build %v, demoted %d, want neither", build, demoted)
	}
	if got, ok := q.Pinned(q.Executor().Snapshot(), 3); !ok || got != r {
		t.Fatalf("Pinned = %p, %v, want the cached answer %p", got, ok, r)
	}
	if cs := q.CacheStats(); cs.Pinned != 1 || cs.Cached != 0 {
		t.Fatalf("cache holds %d pinned and %d unpinned answers, want 1 and 0", cs.Pinned, cs.Cached)
	}
}

func TestQuerierInvalidatesOnMutation(t *testing.T) {
	g := querierGraph(t)
	q := NewQuerier(g, Options{NumWalks: 300, Seed: 1}, 4)
	if _, err := q.SingleSource(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	// Mutate: the cached answer must not be served again.
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := q.SingleSource(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := q.Stats()
	if hits != 0 || misses != 2 {
		t.Fatalf("mutation did not invalidate: %d hits %d misses", hits, misses)
	}
}

func TestQuerierLRUEviction(t *testing.T) {
	g := querierGraph(t)
	q := NewQuerier(g, Options{NumWalks: 100, Seed: 1}, 2)
	for _, u := range []graph.NodeID{1, 2, 3} { // 1 evicted by 3
		if _, err := q.SingleSource(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.SingleSource(context.Background(), 2); err != nil { // still cached
		t.Fatal(err)
	}
	if _, err := q.SingleSource(context.Background(), 1); err != nil { // miss again
		t.Fatal(err)
	}
	hits, misses, cached := q.Stats()
	if hits != 1 || misses != 4 || cached != 2 {
		t.Fatalf("LRU stats wrong: %d hits %d misses %d cached", hits, misses, cached)
	}
	// CacheStats agrees with Stats and counts the two evictions (1 by 3,
	// then 3 by 1's re-entry).
	cs := q.CacheStats()
	if cs.Hits != hits || cs.Misses != misses || cs.Cached != cached {
		t.Fatalf("CacheStats disagrees with Stats: %+v", cs)
	}
	if cs.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", cs.Evictions)
	}
}

func TestQuerierTopKMatchesDirect(t *testing.T) {
	g := querierGraph(t)
	opt := Options{NumWalks: 500, Seed: 9}
	q := NewQuerier(g, opt, 4)
	got, err := q.TopK(context.Background(), 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopK(context.Background(), g, 5, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cached top-k diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if _, err := q.TopK(context.Background(), 5, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
}

func TestQuerierConcurrentAccess(t *testing.T) {
	g := querierGraph(t)
	q := NewQuerier(g, Options{NumWalks: 100, Seed: 2}, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := q.SingleSource(context.Background(), graph.NodeID((w+i)%10)); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQuerierMinCapacity(t *testing.T) {
	g := querierGraph(t)
	q := NewQuerier(g, Options{NumWalks: 50}, 0)
	if _, err := q.SingleSource(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	_, _, cached := q.Stats()
	if cached != 1 {
		t.Fatalf("capacity clamp failed: %d cached", cached)
	}
}
