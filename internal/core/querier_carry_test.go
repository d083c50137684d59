package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probesim/internal/gen"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/xrand"
)

// lagProvider is a snapshot provider over a store whose next
// PublishedView, once armed, returns an older generation: the miss that
// takes it runs on a snapshot that batches reported since have
// superseded, as a miss that overlapped them does.
type lagProvider struct {
	st   *shard.Store
	next atomic.Pointer[shard.StoreSnapshot]
}

func (p *lagProvider) PublishedView() graph.VersionedView {
	if s := p.next.Swap(nil); s != nil {
		return s
	}
	return p.st.PublishedView()
}

func (p *lagProvider) PublishView(ctx context.Context) (graph.VersionedView, error) {
	return p.st.PublishView(ctx)
}

// overlappedMiss runs a miss for src on a followed Querier whose
// snapshot lacks one reported batch, op, and returns the Querier after
// it. The graph is two components, [0, 32) and [32, 64), so a source in
// the first never reads the second.
func overlappedMiss(t *testing.T, src graph.NodeID, op graph.EdgeOp) *Querier {
	t.Helper()
	g := graph.New(256)
	for i := 0; i < 31; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		g.AddEdge(graph.NodeID(i+1), graph.NodeID(i))
	}
	for i := 32; i < 63; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	st := shard.NewStore(g, 8, 0)
	p := &lagProvider{st: st}
	q := NewQuerierOn(NewExecutorOn(p, Options{EpsA: 0.2, Seed: 4, Workers: 2}), 8)
	st.SubscribeApplied(q.Follow(st.Version))

	old := st.Current()
	if _, err := st.ApplyBatch(0, []graph.EdgeOp{op}); err != nil {
		t.Fatal(err)
	}
	st.Publish()
	p.next.Store(old)
	got, err := q.Ranked(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SingleSourceRanked(context.Background(), old, src, q.ex.opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Top, want.Top) {
		t.Fatal("the overlapped miss did not run on the snapshot it took")
	}
	return q
}

// TestQuerierCarryInstallsMissPastUntouchedBatch: a live miss whose
// snapshot lacks a reported batch that missed its read set is cached,
// and the next query for the source is a hit that equals a fresh run on
// the published snapshot.
func TestQuerierCarryInstallsMissPastUntouchedBatch(t *testing.T) {
	const src = graph.NodeID(3)
	q := overlappedMiss(t, src, graph.EdgeOp{U: 40, V: 55})
	if cs := q.CacheStats(); cs.Cached != 1 {
		t.Fatalf("a miss past a batch outside its read set was not cached: %+v", cs)
	}
	if !checkFresh(t, q, src) {
		t.Fatalf("the next query missed: %+v", q.CacheStats())
	}
}

// TestQuerierCarryRefusesMissPastTouchingBatch: a live miss whose
// snapshot lacks a reported batch into its read set is not cached.
func TestQuerierCarryRefusesMissPastTouchingBatch(t *testing.T) {
	const src = graph.NodeID(3)
	q := overlappedMiss(t, src, graph.EdgeOp{U: 5, V: src})
	if cs := q.CacheStats(); cs.Cached != 0 {
		t.Fatalf("a miss past a batch into its source was cached: %+v", cs)
	}
	if checkFresh(t, q, src) {
		t.Fatal("the next query hit an answer a batch had outdated")
	}
}

// TestQuerierCarryConcurrentMissesMatchPublished runs concurrent misses
// and hits on several sources, and builds pinning two of them, beside a
// writer applying random 4-op batches (some of them rejected and rolled
// back) and publishing each. Every answer a query returns must equal a
// fresh kernel run on the snapshot published when it was served: the
// one published throughout the call, or one published during it when a
// write overlapped the call. Readers keep reading until the run has
// exercised a hit and an invalidation, or the writer is done.
func TestQuerierCarryConcurrentMissesMatchPublished(t *testing.T) {
	const n = 300
	g := gen.PreferentialAttachment(n, 4, 41)
	st := shard.NewStore(g, 8, 0)
	opt := Options{EpsA: 0.3, Seed: 5, Workers: 2}
	q := NewQuerierOn(NewExecutorOn(st, opt), 3)
	st.SubscribeApplied(q.Follow(st.Version))
	sources := []graph.NodeID{0, 1, 7, 42, 150, 299}

	var mu sync.Mutex
	published := map[uint64]*shard.StoreSnapshot{st.Current().Version(): st.Current()}
	type served struct {
		u             graph.NodeID
		r             *Ranked
		before, after uint64
	}
	var answers []served

	ctx := context.Background()
	var readers, others sync.WaitGroup
	stop, written := make(chan struct{}), make(chan struct{})
	others.Add(1)
	go func() { // writer
		defer others.Done()
		defer close(written)
		rng := xrand.New(42)
		var added []graph.EdgeOp
		for b := 0; b < 400; b++ {
			select {
			case <-stop:
				return
			default:
			}
			var ops []graph.EdgeOp
			for len(ops) < 4 {
				if len(added) > 0 && rng.Float64() < 0.3 {
					i := rng.Intn(len(added))
					op := added[i]
					added = slices.Delete(added, i, i+1)
					op.Remove = true
					ops = append(ops, op)
					continue
				}
				u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				if u != v {
					ops = append(ops, graph.EdgeOp{U: u, V: v})
				}
			}
			if b%10 == 9 {
				ops[3] = graph.EdgeOp{U: ops[3].U, V: ops[3].U} // a self-loop: the batch rolls back
			}
			if _, err := st.ApplyBatch(0, ops); err == nil {
				for _, op := range ops {
					if !op.Remove {
						added = append(added, op)
					}
				}
			}
			snap := st.Publish()
			mu.Lock()
			published[snap.Version()] = snap
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	others.Add(1)
	go func() { // hot-set builds
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			build, _ := q.Pin(sources[:2])
			for _, u := range build {
				if _, err := q.Build(ctx, u, Budget{}); err != nil && !errors.Is(err, ErrRaced) {
					t.Error(err)
				}
			}
		}
	}()
	// Each reader reads at least 150 times, and then on until the cache
	// has served a hit and dropped an entry, the final check's condition,
	// or until the writer's batches end: a fast kernel can otherwise
	// finish every read before the first batch that drops anything.
	exercised := func() bool {
		cs := q.CacheStats()
		return cs.Hits > 0 && cs.Invalidations.Total()+cs.PinnedDropped > 0
	}
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			rng := xrand.New(uint64(100 + w))
			for i := 0; ; i++ {
				if i >= 150 {
					if exercised() {
						return
					}
					select {
					case <-written:
						return
					default:
					}
				}
				u := sources[rng.Intn(len(sources))]
				before := st.Current().Version()
				r, err := q.Ranked(ctx, u)
				after := st.Current().Version()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				answers = append(answers, served{u, r, before, after})
				mu.Unlock()
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	others.Wait()

	refs := map[[2]uint64]*Ranked{}
	ref := func(v uint64, u graph.NodeID) *Ranked {
		key := [2]uint64{v, uint64(u)}
		if r, ok := refs[key]; ok {
			return r
		}
		r, err := SingleSourceRanked(ctx, published[v], u, opt)
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = r
		return r
	}
	overlapped := 0
	for _, a := range answers {
		matched := false
		for v := a.before; v <= a.after && !matched; v++ {
			if published[v] != nil {
				want := ref(v, a.u)
				matched = a.r.N == want.N && slices.Equal(a.r.Top, want.Top)
			}
		}
		if !matched {
			t.Fatalf("source %d served between versions %d and %d: its answer matches no snapshot published then", a.u, a.before, a.after)
		}
		if a.before != a.after {
			overlapped++
		}
	}
	cs := q.CacheStats()
	t.Logf("%d answers (%d overlapping a publication); %s", len(answers), overlapped, fmt.Sprintf("%+v", cs))
	if cs.Hits == 0 || cs.Invalidations.Total()+cs.PinnedDropped == 0 {
		t.Fatalf("the run exercised no carried hits or no invalidations: %+v", cs)
	}
}
