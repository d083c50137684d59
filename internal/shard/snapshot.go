package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
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

// Publish re-encodes every shard side (in-lists or out-lists) that moved
// since the last publication and atomically publishes the new composite
// snapshot. Cost is O(changed sides' nodes+edges + shard count), not
// O(n+m): untouched shards, and the unmoved side of a touched shard, are
// shared with the previous snapshot by reference. Distinct
// dirty shards rebuild concurrently on a pool bounded by the store's
// worker limit. Publish serializes against ApplyBatch and itself; a
// publish with no pending mutations returns the current snapshot
// untouched.
func (st *Store) Publish() *StoreSnapshot {
	snap, _ := st.PublishCtx(context.Background())
	return snap
}

// PublishCtx is Publish with cancellation: the rebuild worker pool
// checkpoints ctx between shard re-encodes, and a canceled publication is
// abandoned before the atomic store — the previously published snapshot
// (returned alongside the error) stays current and the mutable side keeps
// its dirty-shard versions, so the next publication simply redoes the
// work. Cancellation can delay visibility of mutations, never corrupt it.
func (st *Store) PublishCtx(ctx context.Context) (*StoreSnapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	prev := st.cur.Load()
	if prev != nil && prev.version == st.version {
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
	for p, sm := range st.shards {
		// A shard is clean iff its version matches what the previous
		// snapshot encoded (every op that touches a shard bumps its
		// version).
		if prev != nil && prev.versions[p] == sm.version() {
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
	if prev != nil {
		st.gc.track(prev, next)
	}
	return next, nil
}

// rebuildParallelThreshold is the total edge count (in + out entries
// across the dirty shards) below which rebuild encodes serially: the
// common small-batch publication touches a handful of shards whose
// re-encode is a few KB of copies, cheaper than any goroutine fan-out.
// Mirrors snapshotParallelThreshold on the monolithic build.
const rebuildParallelThreshold = 1 << 16

// rebuild encodes the dirty shards into next, fanning out across the
// worker pool when there is enough work to amortize it. Workers check ctx
// between shard encodes (one shard is the cancellation granularity); on
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
		// Cheap pre-pass (a len() sum over the lists of the sides to
		// encode): skip the fan-out when there is not enough copying to
		// amortize it.
		var work int64
		for _, p := range dirty {
			sm := st.shards[p]
			in, out := sm.moved(prev, p)
			if in {
				work += entries(sm.in)
			}
			if out {
				work += entries(sm.out)
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
			st.encodeShard(prev, next, p)
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
				st.encodeShard(prev, next, dirty[i])
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
	if prev == nil {
		return true, true
	}
	return sm.inVersion > prev.versions[p], sm.outVersion > prev.versions[p]
}

// encodeShard builds shard p's CSR from its mutable adjacency, preserving
// neighbor order exactly. Only the sides that moved since prev are
// re-encoded; the other side shares prev's arrays.
func (st *Store) encodeShard(prev, next *StoreSnapshot, p int) {
	sm := st.shards[p]
	in, out := sm.moved(prev, p)
	var sh graph.CSRShard
	var copied int64
	if in {
		sh.InOff, sh.InDst = encodeSide(sm.in, p)
		copied += int64(len(sh.InDst))
	} else {
		sh.InOff, sh.InDst = prev.csr[p].InOff, prev.csr[p].InDst
	}
	if out {
		sh.OutOff, sh.OutDst = encodeSide(sm.out, p)
		copied += int64(len(sh.OutDst))
	} else {
		sh.OutOff, sh.OutDst = prev.csr[p].OutOff, prev.csr[p].OutDst
	}
	next.csr[p] = sh
	next.versions[p] = sm.version()
	st.edgesReEncoded.Add(copied)
}

// encodeSide packs one side's lists of shard p into CSR offsets and
// destinations.
func encodeSide(lists [][]graph.NodeID, p int) ([]uint32, []graph.NodeID) {
	m := entries(lists)
	if m > math.MaxUint32 {
		panic(fmt.Sprintf("shard: %d edges overflow shard %d's 32-bit offsets", m, p))
	}
	off := make([]uint32, len(lists)+1)
	dst := make([]graph.NodeID, m)
	var pos uint32
	for l, lst := range lists {
		pos += uint32(copy(dst[pos:], lst))
		off[l+1] = pos
	}
	return off, dst
}

// entries returns the number of list entries on one side of a shard.
func entries(lists [][]graph.NodeID) int64 {
	var m int64
	for _, l := range lists {
		m += int64(len(l))
	}
	return m
}
