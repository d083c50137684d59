package shard

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"probesim/internal/graph"
)

// StoreSnapshot is the immutable composite read side of a Store: one CSR
// per shard plus the per-shard versions they encode. It implements
// graph.View and graph.AdjProvider, so every kernel runs on it through
// the same devirtualized graph.Adj fast path it uses on a monolithic
// *graph.Snapshot, with bit-identical results. That Adj reads each
// node's lists through its shard's own offsets, so a snapshot holds no
// per-node state beyond its shard blocks.
//
// Snapshots share unrebuilt shard CSRs with their predecessors by
// reference; all of it is immutable, so any number of queries may read
// any number of generations concurrently with no synchronization.
type StoreSnapshot struct {
	n         int
	m         int64
	version   uint64
	lastBatch uint64
	shift     uint32

	csr      []graph.CSRShard
	versions []uint64 // store version each shard CSR was built at
}

var (
	_ graph.VersionedView = (*StoreSnapshot)(nil)
	_ graph.AdjProvider   = (*StoreSnapshot)(nil)
)

// NumNodes returns the number of nodes.
func (s *StoreSnapshot) NumNodes() int { return s.n }

// NumEdges returns the number of directed edges.
func (s *StoreSnapshot) NumEdges() int64 { return s.m }

// Version returns the store's mutation counter at publish time.
func (s *StoreSnapshot) Version() uint64 { return s.version }

// LastBatch returns the store's apply-once batch watermark at publish
// time: every durable batch with id <= LastBatch is reflected in this
// snapshot. A checkpoint of the snapshot therefore covers the write-ahead
// log exactly through this id.
func (s *StoreSnapshot) LastBatch() uint64 { return s.lastBatch }

// NumShards returns the number of shard CSRs in the composite.
func (s *StoreSnapshot) NumShards() int { return len(s.csr) }

// ProvideAdj implements graph.AdjProvider: the sharded devirtualized
// accessor over the snapshot's shard blocks. It allocates nothing.
func (s *StoreSnapshot) ProvideAdj() graph.Adj {
	return graph.NewShardedAdj(s, s.csr, s.shift)
}

// Shift returns log2 of the node stride: node v's lists live in shard
// v>>Shift(). Exposed for the shard engine plane, which must agree with
// the store about ownership without holding a *Store.
func (s *StoreSnapshot) Shift() uint32 { return s.shift }

// Shard returns shard p's immutable CSR block — the "resolve adjacency
// spans" primitive of the shard engine API. The block aliases the
// snapshot's storage (never copied, never invalidated), so a local engine
// serves it by reference and a remote engine serializes it straight onto
// the wire.
func (s *StoreSnapshot) Shard(p int) graph.CSRShard { return s.csr[p] }

// ShardVersion returns the store version shard p's CSR was encoded at —
// the per-shard dirtiness signal publication compares, exposed so engines
// can report fine-grained staleness.
func (s *StoreSnapshot) ShardVersion(p int) uint64 { return s.versions[p] }

func (s *StoreSnapshot) shardOf(v graph.NodeID) (*graph.CSRShard, uint32) {
	return &s.csr[uint32(v)>>s.shift], uint32(v) & (uint32(1)<<s.shift - 1)
}

// InNeighbors returns the in-neighbor list of v. The slice aliases the
// snapshot's storage; it is immutable and never invalidated.
func (s *StoreSnapshot) InNeighbors(v graph.NodeID) []graph.NodeID {
	sh, l := s.shardOf(v)
	return sh.InDst[sh.InOff[l]:sh.InOff[l+1]]
}

// OutNeighbors returns the out-neighbor list of u under the same contract
// as InNeighbors.
func (s *StoreSnapshot) OutNeighbors(u graph.NodeID) []graph.NodeID {
	sh, l := s.shardOf(u)
	return sh.OutDst[sh.OutOff[l]:sh.OutOff[l+1]]
}

// InDegree returns |I(v)|.
func (s *StoreSnapshot) InDegree(v graph.NodeID) int {
	sh, l := s.shardOf(v)
	return int(sh.InOff[l+1] - sh.InOff[l])
}

// OutDegree returns |O(u)|.
func (s *StoreSnapshot) OutDegree(u graph.NodeID) int {
	sh, l := s.shardOf(u)
	return int(sh.OutOff[l+1] - sh.OutOff[l])
}

// MemoryBytes reports the resident size of the per-shard CSR arrays.
func (s *StoreSnapshot) MemoryBytes() int64 {
	var b int64
	for i := range s.csr {
		sh := &s.csr[i]
		b += int64(len(sh.InOff)+len(sh.OutOff)) * 4
		b += int64(len(sh.InDst)+len(sh.OutDst)) * 4
	}
	return b
}

// Validate checks the composite invariants: shard coverage of [0, n),
// every block well formed (CheckBlock), and edge counts summing to m. O(n+m), intended for tests.
func (s *StoreSnapshot) Validate() error {
	stride := 1 << s.shift
	wantShards := (s.n + stride - 1) / stride
	if len(s.csr) != wantShards {
		return fmt.Errorf("shard: %d shards for %d nodes at stride %d, want %d", len(s.csr), s.n, stride, wantShards)
	}
	var mIn, mOut int64
	for p := range s.csr {
		sh := &s.csr[p]
		if err := CheckBlock(*sh, p, s.shift, s.n); err != nil {
			return err
		}
		mIn += int64(len(sh.InDst))
		mOut += int64(len(sh.OutDst))
	}
	if mIn != s.m || mOut != s.m {
		return fmt.Errorf("shard: snapshot edge counts in=%d out=%d, want %d", mIn, mOut, s.m)
	}
	return nil
}

// CheckBlock checks that b is a well-formed CSR block for shard p of an
// n-node graph at a 1<<shift node stride: the shape the sharded
// graph.Adj indexes without checks of its own. Both offset arrays must be
// one longer than the shard's node count, start at 0, never decrease and
// end at their dst arrays' lengths, and every destination must lie in
// [0, n). Restore and Validate run it on every block they hold, and the
// router on every block it fetches from a worker, so a malformed block
// fails the read instead of panicking a kernel.
func CheckBlock(b graph.CSRShard, p int, shift uint32, n int) error {
	local := min(n-p<<shift, 1<<shift)
	if p < 0 || local < 1 {
		return fmt.Errorf("shard %d: holds no node of %d at stride %d", p, n, 1<<shift)
	}
	if len(b.InOff) != local+1 || len(b.OutOff) != local+1 {
		return fmt.Errorf("shard %d: offset arrays of length %d/%d, want %d", p, len(b.InOff), len(b.OutOff), local+1)
	}
	for _, side := range [2]struct {
		off []uint32
		dst []graph.NodeID
	}{{b.InOff, b.InDst}, {b.OutOff, b.OutDst}} {
		if side.off[0] != 0 {
			return fmt.Errorf("shard %d: offsets start at %d", p, side.off[0])
		}
		for l := 0; l < local; l++ {
			if side.off[l] > side.off[l+1] {
				return fmt.Errorf("shard %d: offsets decrease at local node %d", p, l)
			}
		}
		if int(side.off[local]) != len(side.dst) {
			return fmt.Errorf("shard %d: dst array of length %d, offsets end at %d", p, len(side.dst), side.off[local])
		}
		for _, v := range side.dst {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("shard %d: destination %d out of range [0, %d)", p, v, n)
			}
		}
	}
	return nil
}

// Current returns the most recently published snapshot. It never blocks.
func (st *Store) Current() *StoreSnapshot { return st.cur.Load() }

// PublishedView implements core's SnapshotProvider: the published
// composite snapshot as a versioned view.
func (st *Store) PublishedView() graph.VersionedView { return st.Current() }

// PublishView implements core's SnapshotProvider: republish if stale,
// honoring ctx (see PublishCtx).
func (st *Store) PublishView(ctx context.Context) (graph.VersionedView, error) {
	return st.PublishCtx(ctx)
}

// Publish rebuilds every shard side (in-lists or out-lists) that moved
// since the last publication and atomically publishes the new composite
// snapshot. Each moved side is spliced from the previous snapshot's side
// and the lists ops have moved: the runs of unmoved nodes between them
// are bulk-copied with their offsets shifted, and the moved lists copied
// in at their nodes' places. Cost is O(changed sides' nodes+edges +
// shard count), not O(n+m): untouched shards, and the unmoved side of a
// touched shard, are shared with the previous snapshot by reference.
// Distinct dirty shards rebuild concurrently on a pool bounded by the
// store's worker limit. Publish serializes against ApplyBatch and
// itself; a publish with no pending mutations returns the current
// snapshot untouched.
func (st *Store) Publish() *StoreSnapshot {
	snap, _ := st.PublishCtx(context.Background())
	return snap
}

// PublishCtx is Publish with cancellation: the rebuild worker pool
// checkpoints ctx between shard rebuilds, and a canceled publication is
// abandoned before the atomic store — the previously published snapshot
// (returned alongside the error) stays current, and the store keeps its
// moved lists and dirty-side versions, so the next publication simply
// redoes the work. The moved lists are dropped only once the snapshot
// they were spliced into is current. Cancellation can delay visibility
// of mutations, never corrupt it.
func (st *Store) PublishCtx(ctx context.Context) (*StoreSnapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	prev := st.cur.Load()
	if prev.version == st.version {
		st.noopPublishes.Add(1)
		return prev, nil
	}
	if err := ctx.Err(); err != nil {
		st.abortedPublishes.Add(1)
		return prev, fmt.Errorf("shard: publication aborted: %w", err)
	}
	next := &StoreSnapshot{
		n:         st.n,
		m:         st.m,
		version:   st.version,
		lastBatch: st.lastBatch,
		shift:     st.part.shift,
		csr:       make([]graph.CSRShard, len(st.shards)),
		versions:  make([]uint64, len(st.shards)),
	}
	dirty := make([]int, 0, len(st.shards))
	for p := range st.shards {
		// A shard is clean iff its version matches what the previous
		// snapshot encoded (every op that touches a shard bumps its
		// version).
		if prev.versions[p] == st.shards[p].version() {
			next.csr[p] = prev.csr[p]
			next.versions[p] = prev.versions[p]
			continue
		}
		dirty = append(dirty, p)
	}
	if err := st.rebuild(ctx, prev, next, dirty); err != nil {
		st.abortedPublishes.Add(1)
		return prev, fmt.Errorf("shard: publication aborted: %w", err)
	}
	st.publications.Add(1)
	st.shardsRebuilt.Add(int64(len(dirty)))
	st.shardsReused.Add(int64(len(st.shards) - len(dirty)))
	st.cur.Store(next)
	for _, p := range dirty {
		st.shards[p].in.moved, st.shards[p].out.moved = nil, nil
	}
	st.gc.track(prev, next)
	return next, nil
}

// rebuildParallelThreshold is the total edge count (in + out entries
// across the dirty shards' moved sides) below which rebuild runs
// serially: the common small-batch publication touches a handful of
// shards whose splice is a few KB of copies, cheaper than any goroutine
// fan-out. Mirrors snapshotParallelThreshold on the monolithic build.
const rebuildParallelThreshold = 1 << 16

// rebuild splices the dirty shards into next, fanning out across the
// worker pool when there is enough work to amortize it. Workers check ctx
// between shards (one shard is the cancellation granularity); on
// cancellation the partially filled next is abandoned by the caller.
func (st *Store) rebuild(ctx context.Context, prev, next *StoreSnapshot, dirty []int) error {
	workers := st.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(dirty) {
		workers = len(dirty)
	}
	if workers > 1 {
		// Cheap pre-pass (the previous sizes of the sides to rebuild):
		// skip the fan-out when there is not enough copying to amortize
		// it.
		var work int64
		for _, p := range dirty {
			in, out := st.shards[p].moved(prev, p)
			if in {
				work += int64(len(prev.csr[p].InDst))
			}
			if out {
				work += int64(len(prev.csr[p].OutDst))
			}
		}
		if work < rebuildParallelThreshold {
			workers = 1
		}
	}
	done := ctx.Done()
	if workers <= 1 {
		for i, p := range dirty {
			// ctx.Err() is a lock per call; only pay it when cancelable
			// and not on the first shard (tiny publishes stay one-shot).
			if done != nil && i > 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			st.rebuildShard(prev, next, p)
		}
		return nil
	}
	var idx atomic.Int64
	var canceled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if canceled.Load() {
					return
				}
				if done != nil {
					if err := ctx.Err(); err != nil {
						canceled.Store(true)
						return
					}
				}
				i := int(idx.Add(1)) - 1
				if i >= len(dirty) {
					return
				}
				st.rebuildShard(prev, next, dirty[i])
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		return ctx.Err()
	}
	return nil
}

// moved reports which sides of shard p moved since prev encoded it: a
// side no op has touched since then still equals prev's block side.
func (sm *shardMut) moved(prev *StoreSnapshot, p int) (in, out bool) {
	return sm.in.version > prev.versions[p], sm.out.version > prev.versions[p]
}

// rebuildShard builds shard p's next block, preserving neighbor order
// exactly: each side that moved since prev is spliced from prev's side
// and its moved lists; the other side shares prev's arrays.
func (st *Store) rebuildShard(prev, next *StoreSnapshot, p int) {
	sm := &st.shards[p]
	in, out := sm.moved(prev, p)
	sh := prev.csr[p]
	var written int64
	if in {
		sh.InOff, sh.InDst = splice(sh.InOff, sh.InDst, sm.in.moved, p)
		written += int64(len(sh.InDst))
	}
	if out {
		sh.OutOff, sh.OutDst = splice(sh.OutOff, sh.OutDst, sm.out.moved, p)
		written += int64(len(sh.OutDst))
	}
	next.csr[p] = sh
	next.versions[p] = sm.version()
	st.edgesReEncoded.Add(written)
}

// splice builds one side of shard p's next block from its previous
// offsets and destinations and the lists moved since, keyed by local
// index. The runs of nodes between moved ones are bulk-copied, their
// offsets shifted by the running change in length; each moved list is
// copied in at its node's place.
func splice(off []uint32, dst []graph.NodeID, moved map[int32]*[]graph.NodeID, p int) ([]uint32, []graph.NodeID) {
	locals := slices.Sorted(maps.Keys(moved))
	size := int64(len(dst))
	for _, l := range locals {
		size += int64(len(*moved[l])) - int64(off[l+1]-off[l])
	}
	checkSize(size, p)
	nOff := make([]uint32, len(off))
	nDst := make([]graph.NodeID, size)
	var delta uint32 // nOff[i] - off[i] for the run in hand, mod 2^32
	from := 0        // the run in hand starts at node from
	for _, l := range locals {
		copy(nDst[nOff[from]:], dst[off[from]:off[l]])
		for i := from + 1; i <= int(l); i++ {
			nOff[i] = off[i] + delta
		}
		list := *moved[l]
		copy(nDst[nOff[l]:], list)
		nOff[l+1] = nOff[l] + uint32(len(list))
		delta = nOff[l+1] - off[l+1]
		from = int(l) + 1
	}
	copy(nDst[nOff[from]:], dst[off[from]:])
	for i := from + 1; i < len(off); i++ {
		nOff[i] = off[i] + delta
	}
	return nOff, nDst
}
