// Package shard partitions the dynamic graph by source node into P
// shards, each an immutable CSR block with its version counter, and
// holds the graph once: the published blocks are the store's only copy
// of the adjacency. It is the scaling layer between the monolithic
// snapshot path of PR 1 and multi-process serving:
//
//   - An edge batch republishes in O(batch + touched shards) instead of
//     O(n+m): an op edits a private copy of each list it moves, and
//     publication rebuilds only the sides (in- or out-lists) of the
//     shards a batch moved, each spliced from the previous snapshot's
//     side and those copies, on a bounded worker pool; untouched shards
//     and sides are shared by pointer with the previous snapshot.
//   - Queries run unchanged and bit-identically: the published composite
//     snapshot implements graph.View and graph.AdjProvider, so every
//     kernel (walk generation, PROBE expansion, components, joins)
//     resolves the same devirtualized graph.Adj fast path it uses on a
//     monolithic snapshot, and neighbor order is preserved exactly.
//   - The probe/walk kernels are embarrassingly parallel over sources, so
//     queries fan out across shards for free through the executor's
//     worker pool; no kernel knows shards exist.
//
// Partitioning is by contiguous node range with a power-of-two stride:
// node v lives in shard v>>shift at local index v&(stride-1). The stride
// is chosen so the shard count does not exceed the requested P, and the
// shift/mask arithmetic keeps the per-access cost within noise of the
// monolithic CSR layout.
//
// A Store holds the whole graph, whichever shards a worker serves from
// it. It changes only through ApplyBatch, one identified batch at a
// time, which either applies a batch whole or leaves every list as it
// was, and is read only through the snapshots it publishes. Its node
// count and shard set are fixed at construction.
package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"probesim/internal/graph"
)

// Partition maps nodes to shards: contiguous ranges of 1<<shift nodes.
type Partition struct {
	shift uint32
}

// NewPartition chooses the smallest power-of-two stride that covers n
// nodes with at most p shards. p < 1 is treated as 1.
func NewPartition(n, p int) Partition {
	if p < 1 {
		p = 1
	}
	perShard := (n + p - 1) / p
	var shift uint32
	for 1<<shift < perShard {
		shift++
	}
	return Partition{shift: shift}
}

// Stride returns the number of node ids per shard.
func (pt Partition) Stride() int { return 1 << pt.shift }

// Shift returns log2(stride).
func (pt Partition) Shift() uint32 { return pt.shift }

// ShardOf returns the shard owning node v.
func (pt Partition) ShardOf(v graph.NodeID) int { return int(uint32(v) >> pt.shift) }

// LocalOf returns v's index within its shard.
func (pt Partition) LocalOf(v graph.NodeID) int { return int(uint32(v) & (uint32(1)<<pt.shift - 1)) }

// Count returns the number of shards needed for n nodes.
func (pt Partition) Count(n int) int {
	stride := 1 << pt.shift
	return (n + stride - 1) / stride
}

// shardMut is one shard's write-side state: its two sides' changes since
// the last publication.
type shardMut struct {
	in, out side
}

// version returns the shard's version: the store version of its last
// mutation on either side, the one snapshots publish per shard.
func (sm *shardMut) version() uint64 { return max(sm.in.version, sm.out.version) }

// side is one side (in- or out-lists) of a shard on the write path: the
// store version of its last mutation, the dirtiness signal Publish
// compares against the published snapshot, and the lists ops have moved
// since the last publication, keyed by local index. The published
// snapshot holds every other list. An op copies a list out of the
// snapshot on its first touch and edits only that copy, so no op ever
// writes into a published array; publication splices the copies into
// the side's next CSR block and then drops them.
type side struct {
	version uint64
	moved   map[int32]*[]graph.NodeID // destination ids are global
}

// list returns local node l's list as the ops applied so far left it:
// its moved copy, or else pub, its published list.
func (s *side) list(l int32, pub []graph.NodeID) []graph.NodeID {
	if c, ok := s.moved[l]; ok {
		return *c
	}
	return pub
}

// edit returns local node l's moved copy for an op to edit, copying it
// from pub, its published list, on the first touch since the last
// publication. The copy has room for the one entry an add or an undone
// removal appends.
func (s *side) edit(l int32, pub []graph.NodeID) *[]graph.NodeID {
	if c, ok := s.moved[l]; ok {
		return c
	}
	if s.moved == nil {
		s.moved = make(map[int32]*[]graph.NodeID)
	}
	c := append(make([]graph.NodeID, 0, len(pub)+1), pub...)
	s.moved[l] = &c
	return &c
}

// Store is the sharded counterpart of the monolithic *graph.Graph +
// core.Executor snapshot pair: an atomically published composite
// snapshot, partitioned, plus the lists the batches applied since its
// publication have moved. The published CSR blocks are the store's only
// copy of the adjacency; every list no op has moved since is read from
// them. Every Store holds the whole graph, so stores that took the same
// batches hold the same lists in the same order and decide the next
// batch the same way.
//
// Concurrency contract: ApplyBatch, its one mutation, and Publish
// serialize on an internal mutex; any number of goroutines may read the
// published snapshot (Current / PublishedView) lock-free at any time,
// including during a batch and a publication. The moved lists have no
// reader outside the store: a batch becomes visible only through the
// next published snapshot.
type Store struct {
	part    Partition
	workers int

	mu      sync.Mutex
	n       int
	m       int64
	version uint64
	// lastBatch is the id of the last edge batch DECIDED by ApplyBatch
	// (applied or rejected) — the durable write plane's apply-once
	// watermark. Batch ids are assigned by the write-ahead log (or the
	// router) and increase monotonically; 0 means "no batches yet".
	lastBatch uint64
	// rejection is lastBatch's decision: nil if it applied, the error it
	// was rejected with otherwise (see Rejection).
	rejection error
	shards    []shardMut

	cur atomic.Pointer[StoreSnapshot]

	// gc counts superseded generations for the retired-generation
	// gauges (see gc.go).
	gc gcTracker

	// onApplied callbacks fire after every SUCCESSFULLY applied batch
	// (never for rejected/rolled-back batches or apply-once retry
	// no-ops), under st.mu and in subscription order. See
	// SubscribeApplied for the callback contract.
	onApplied []func(id uint64, ops []graph.EdgeOp)

	// Publication counters (atomics so /stats can read them lock-free).
	publications     atomic.Int64
	shardsRebuilt    atomic.Int64
	shardsReused     atomic.Int64
	noopPublishes    atomic.Int64
	abortedPublishes atomic.Int64
	edgesReEncoded   atomic.Int64
}

// NewStore partitions g into at most shards shards and publishes an
// initial snapshot, encoding each shard's CSR block straight from g's
// lists: the store and the source graph are independent afterwards, and
// the blocks are the store's one copy of the adjacency. workers bounds
// the rebuild pool; <= 0 means one goroutine per dirty shard up to
// GOMAXPROCS.
func NewStore(g *graph.Graph, shards, workers int) *Store {
	n := g.NumNodes()
	st := &Store{
		part:    NewPartition(n, shards),
		workers: workers,
		n:       n,
		m:       g.NumEdges(),
		version: g.Version(),
	}
	count := st.part.Count(n)
	st.shards = make([]shardMut, count)
	snap := &StoreSnapshot{
		n:        n,
		m:        st.m,
		version:  st.version,
		shift:    st.part.shift,
		csr:      make([]graph.CSRShard, count),
		versions: make([]uint64, count),
	}
	stride := st.part.Stride()
	var written int64
	for p := range count {
		lo, hi := p*stride, min((p+1)*stride, n)
		sh := &snap.csr[p]
		sh.InOff, sh.InDst = encodeLists(lo, hi, p, g.InNeighbors)
		sh.OutOff, sh.OutDst = encodeLists(lo, hi, p, g.OutNeighbors)
		written += int64(len(sh.InDst) + len(sh.OutDst))
		snap.versions[p] = st.version
		st.shards[p] = shardMut{in: side{version: st.version}, out: side{version: st.version}}
	}
	st.cur.Store(snap)
	st.publications.Add(1)
	st.shardsRebuilt.Add(int64(count))
	st.edgesReEncoded.Add(written)
	return st
}

// encodeLists packs the lists of nodes [lo, hi), one side of shard p,
// into CSR offsets and destinations, in neighbor order.
func encodeLists(lo, hi, p int, lists func(graph.NodeID) []graph.NodeID) ([]uint32, []graph.NodeID) {
	var size int64
	for v := lo; v < hi; v++ {
		size += int64(len(lists(graph.NodeID(v))))
	}
	checkSize(size, p)
	off := make([]uint32, hi-lo+1)
	dst := make([]graph.NodeID, size)
	var pos uint32
	for v := lo; v < hi; v++ {
		pos += uint32(copy(dst[pos:], lists(graph.NodeID(v))))
		off[v-lo+1] = pos
	}
	return off, dst
}

// checkSize panics when one side of shard p would hold more entries than
// its 32-bit offsets address.
func checkSize(size int64, p int) {
	if size > math.MaxUint32 {
		panic(fmt.Sprintf("shard: %d edges overflow shard %d's 32-bit offsets", size, p))
	}
}

// NewEmpty returns a store with n isolated nodes partitioned into at most
// shards shards, with an initial (empty-adjacency) snapshot published.
func NewEmpty(n, shards, workers int) *Store {
	if n < 0 {
		panic("shard: negative node count")
	}
	return NewStore(graph.New(n), shards, workers)
}

// Restore rebuilds a Store from checkpointed per-shard CSR blocks — the
// decode side of the durable write plane (internal/persist). The store
// adopts the given blocks as its published snapshot and its one copy of
// the adjacency, with no re-encode and no copy; ops never write into
// them. version and lastBatch restore the mutation counter and the
// apply-once watermark the checkpoint captured; replaying the write-ahead
// log tail through ApplyBatch then brings the store to the crash point.
// Every block must pass CheckBlock. workers bounds the rebuild pool as in
// NewStore.
func Restore(n int, m int64, version, lastBatch uint64, shift uint32, csr []graph.CSRShard, shardVersions []uint64, workers int) (*Store, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("shard: restore with n=%d m=%d", n, m)
	}
	if len(shardVersions) != len(csr) {
		return nil, fmt.Errorf("shard: restore with %d shards and %d versions", len(csr), len(shardVersions))
	}
	snap := &StoreSnapshot{
		n:         n,
		m:         m,
		version:   version,
		lastBatch: lastBatch,
		shift:     shift,
		csr:       csr,
		versions:  slices.Clone(shardVersions),
	}
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("shard: restore: %w", err)
	}
	st := &Store{
		part:      Partition{shift: shift},
		workers:   workers,
		n:         n,
		m:         m,
		version:   version,
		lastBatch: lastBatch,
		shards:    make([]shardMut, len(csr)),
	}
	for p, v := range snap.versions {
		st.shards[p] = shardMut{in: side{version: v}, out: side{version: v}}
	}
	st.cur.Store(snap)
	st.publications.Add(1)
	return st, nil
}

// Assemble builds a snapshot over shard blocks held outside any Store —
// the composite a router assembles from the blocks its worker fleet
// serves — so that queries run on it with the same code as on a store's
// own snapshot. Like Restore it takes csr as given, one block per shard
// at the 1<<shift stride, each already checked by CheckBlock; unlike
// Restore it builds no write side. shardVersions, aligned with csr, are
// the versions ShardVersion reports.
func Assemble(n int, m int64, version, lastBatch uint64, shift uint32, csr []graph.CSRShard, shardVersions []uint64) *StoreSnapshot {
	return &StoreSnapshot{n: n, m: m, version: version, lastBatch: lastBatch, shift: shift, csr: csr, versions: shardVersions}
}

// NumShards returns the shard count, fixed at construction.
func (st *Store) NumShards() int { return len(st.shards) }

// Partition returns the node-to-shard mapping.
func (st *Store) Partition() Partition { return st.part }

// NumNodes returns the number of nodes, fixed at construction.
func (st *Store) NumNodes() int { return st.n }

// NumEdges returns the number of directed edges after the last applied
// batch. Like Version, it is for the writer and the applied-batch hooks;
// a concurrent reader reads the published snapshot's count.
func (st *Store) NumEdges() int64 { return st.m }

// Version returns the mutation counter. Each op ApplyBatch applies
// advances it by one, and a rejected batch by two per op it undid (one
// to apply, one to undo); published snapshots carry the value at publish
// time, so the serving stack's staleness checks work unchanged. Read it
// from the goroutine that applies batches or from an applied-batch hook,
// where it is the version the batch produced.
func (st *Store) Version() uint64 { return st.version }

func (st *Store) checkNode(v graph.NodeID) error {
	if v < 0 || int(v) >= st.n {
		return fmt.Errorf("shard: node %d out of range [0, %d)", v, st.n)
	}
	return nil
}

// lists returns u's out-list and v's in-list, the two lists an op on the
// edge u -> v changes, as the moved copies the op edits, with the shards
// holding them.
func (st *Store) lists(u, v graph.NodeID) (su, sv *shardMut, out, in *[]graph.NodeID) {
	pub := st.cur.Load()
	su, sv = &st.shards[st.part.ShardOf(u)], &st.shards[st.part.ShardOf(v)]
	out = su.out.edit(int32(st.part.LocalOf(u)), pub.OutNeighbors(u))
	in = sv.in.edit(int32(st.part.LocalOf(v)), pub.InNeighbors(v))
	return su, sv, out, in
}

// outList returns u's out-list as the ops applied so far left it,
// copying nothing.
func (st *Store) outList(u graph.NodeID) []graph.NodeID {
	return st.shards[st.part.ShardOf(u)].out.list(int32(st.part.LocalOf(u)), st.cur.Load().OutNeighbors(u))
}

// touch records a change to u's out-side and v's in-side under a new
// store version: the dirtiness signals Publish compares.
func (st *Store) touch(su, sv *shardMut) {
	st.version++
	su.out.version = st.version
	sv.in.version = st.version
}

// addEdgeLocked inserts u -> v with (*graph.Graph).AddEdge's semantics:
// self-loops rejected, parallel edges permitted, appended at the tail of
// both lists (the order that keeps sharded answers bit-identical to
// monolithic ones).
func (st *Store) addEdgeLocked(u, v graph.NodeID) error {
	if err := st.checkNode(u); err != nil {
		return err
	}
	if err := st.checkNode(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("shard: self-loop %d -> %d rejected", u, v)
	}
	su, sv, out, in := st.lists(u, v)
	*out = append(*out, v)
	*in = append(*in, u)
	st.touch(su, sv)
	st.m++
	return nil
}

// removeEdgeLocked removes one occurrence of u -> v exactly as
// (*graph.Graph).RemoveEdge does (first match swapped with the tail), so
// the surviving order matches a monolithic graph's. It returns the
// indices the entry left in u's out-list and v's in-list, which is what
// undoLocked needs to put it back.
func (st *Store) removeEdgeLocked(u, v graph.NodeID) (at [2]int, err error) {
	if err := st.checkNode(u); err != nil {
		return at, err
	}
	if err := st.checkNode(v); err != nil {
		return at, err
	}
	// Look before copying: a removal that fails moves no list.
	if !slices.Contains(st.outList(u), v) {
		return at, fmt.Errorf("shard: edge %d -> %d not found", u, v)
	}
	su, sv, out, in := st.lists(u, v)
	at[0] = graph.RemoveOne(out, v)
	if at[1] = graph.RemoveOne(in, u); at[1] < 0 {
		panic("shard: adjacency lists out of sync")
	}
	st.touch(su, sv)
	st.m--
	return at, nil
}

// undoLocked reverts op, the last op of the batch in flight still
// applied, and leaves both lists exactly as they were before it: an
// add's entries come off the tails it appended them to, and a removal's
// go back to the indices at it reported, the entries swapped into those
// slots back to the tails. Like the op, the undo advances the store
// version and the versions of both sides it touches.
func (st *Store) undoLocked(op graph.EdgeOp, at [2]int) {
	su, sv, out, in := st.lists(op.U, op.V)
	if op.Remove {
		putBack(out, at[0], op.V)
		putBack(in, at[1], op.U)
		st.m++
	} else {
		*out = (*out)[:len(*out)-1]
		*in = (*in)[:len(*in)-1]
		st.m--
	}
	st.touch(su, sv)
}

// putBack reverses graph.RemoveOne's removal of x from index i: x goes
// back to i, and the entry RemoveOne moved there back to the tail.
func putBack(list *[]graph.NodeID, i int, x graph.NodeID) {
	s := append(*list, x)
	s[i], s[len(s)-1] = x, s[i]
	*list = s
}

// EdgeOp is an alias of graph.EdgeOp, the write plane's one op type,
// kept for callers that spell it shard.EdgeOp (the benchmark's
// SubscribeApplied hook).
type EdgeOp = graph.EdgeOp

// LastBatch returns the id of the last batch ApplyBatch decided (applied
// or rejected); 0 means none. It is the apply-once watermark recovery and
// the router's retry path compare against.
func (st *Store) LastBatch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastBatch
}

// Rejection returns the error ApplyBatch rejected batch id with, when id
// is the last batch the store decided; nil when that batch applied, and
// for every other id. It lets a re-sent batch report its real decision.
// The record is kept in memory only: a restart between a batch and its
// re-send loses it (unless recovery replays the batch from the log and
// so decides it again), and the re-send then reads nil.
func (st *Store) Rejection(id uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if id != st.lastBatch {
		return nil
	}
	return st.rejection
}

// ApplyBatch applies one edge batch atomically under a single lock hold:
// either every op applies, or the applied prefix is undone in reverse
// order, every list back in its original order, and the first failure is
// returned.
//
// Batches are identified: id 0 self-assigns the next id (LastBatch()+1);
// a non-zero id at or below the watermark is a RETRY of a batch this
// store has already decided, and returns the current version with no
// error and no mutation — apply-once semantics, which is what makes a
// broadcast retry after a lost reply safe (Rejection reports the last
// batch's real decision). A non-zero id always advances the watermark
// BEFORE the ops are attempted, so a batch that fails semantically is
// decided (rejected) exactly once too: replaying the log after a crash
// re-runs it against the same state, fails it identically, and the store
// converges on the same graph either way.
func (st *Store) ApplyBatch(id uint64, ops []graph.EdgeOp) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if id == 0 {
		id = st.lastBatch + 1
	} else if id <= st.lastBatch {
		return st.version, nil // already decided: apply-once
	}
	st.lastBatch = id
	st.rejection = st.applyLocked(id, ops)
	if st.rejection == nil {
		for _, fn := range st.onApplied {
			fn(id, ops)
		}
	}
	return st.version, st.rejection
}

// applyLocked applies ops in order, or undoes the applied prefix and
// returns the first failure.
func (st *Store) applyLocked(id uint64, ops []graph.EdgeOp) error {
	var buf [8][2]int
	at := buf[:0] // where each applied op removed its entries (zero for an add)
	for i, op := range ops {
		var ati [2]int
		var err error
		if op.Remove {
			ati, err = st.removeEdgeLocked(op.U, op.V)
		} else {
			err = st.addEdgeLocked(op.U, op.V)
		}
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				st.undoLocked(ops[j], at[j])
			}
			kind := "add"
			if op.Remove {
				kind = "remove"
			}
			return fmt.Errorf("shard: batch %d op %d (%s %d->%d): %w; batch rolled back", id, i, kind, op.U, op.V, err)
		}
		at = append(at, ati)
	}
	return nil
}

// SubscribeApplied registers fn to run after every batch ApplyBatch
// applies, with the batch's id and ops — the applied-batch stream that
// keeps derived state (the result cache) fresh without polling. It fires
// once per applied batch under that batch's own id, so the ids fn sees
// strictly increase; retried (apply-once no-op) and rejected batches
// never fire it.
//
// fn runs under the store's apply lock: it must be fast, must not call
// back into the store beyond Version (which then reports the version the
// batch produced: each applied op advances it by exactly one), and must
// not retain ops past the call (the slice is the caller's). Not safe to
// call concurrently with ApplyBatch; subscribe during wiring, before
// writes flow.
func (st *Store) SubscribeApplied(fn func(id uint64, ops []graph.EdgeOp)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.onApplied = append(st.onApplied, fn)
}

// Validate checks cross-shard invariants: edge-count agreement between
// the in- and out-sides and every destination id in range, over every
// list as the ops applied so far left it (its moved copy, or else its
// published list). O(n+m), intended for tests.
func (st *Store) Validate() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	pub := st.cur.Load()
	var nIn, nOut int64
	counts := make(map[[2]graph.NodeID]int64)
	for p := range st.shards {
		sm := &st.shards[p]
		base := p * st.part.Stride()
		for l := 0; l < min(st.part.Stride(), st.n-base); l++ {
			x := graph.NodeID(base + l)
			for _, v := range sm.out.list(int32(l), pub.OutNeighbors(x)) {
				if err := st.checkNode(v); err != nil {
					return fmt.Errorf("shard %d: out[%d] invalid: %w", p, x, err)
				}
				counts[[2]graph.NodeID{x, v}]++
				nOut++
			}
			for _, u := range sm.in.list(int32(l), pub.InNeighbors(x)) {
				if err := st.checkNode(u); err != nil {
					return fmt.Errorf("shard %d: in[%d] invalid: %w", p, x, err)
				}
				counts[[2]graph.NodeID{u, x}]--
				nIn++
			}
		}
	}
	if nOut != nIn || nOut != st.m {
		return fmt.Errorf("shard: edge counts disagree: out=%d in=%d m=%d", nOut, nIn, st.m)
	}
	for e, c := range counts {
		if c != 0 {
			return fmt.Errorf("shard: edge %d -> %d appears %+d more times in out-lists than in-lists", e[0], e[1], c)
		}
	}
	return nil
}

// Stats reports publication effectiveness since the store was created:
// how many snapshot publications ran, how many shard CSRs each rebuilt vs
// reused from the previous snapshot, and how many edges were re-encoded
// in total (the actual publication work, vs m per publication for a full
// rebuild).
type Stats struct {
	Shards        int
	Stride        int
	Publications  int64
	NoopPublishes int64
	// AbortedPublishes counts publications abandoned by context
	// cancellation before the atomic store; their partially re-encoded
	// shards still contribute to EdgesReEncoded (the work was done).
	AbortedPublishes int64
	ShardsRebuilt    int64
	ShardsReused     int64
	EdgesReEncoded   int64
}

// Stats returns a consistent-enough snapshot of the publication counters
// (each counter is individually atomic). It never takes the store mutex —
// the shard count comes from the published snapshot — so /stats stays
// lock-free even while a large batch holds the write path.
func (st *Store) Stats() Stats {
	shards := 0
	if cur := st.cur.Load(); cur != nil {
		shards = cur.NumShards()
	}
	return Stats{
		Shards:           shards,
		Stride:           st.part.Stride(),
		Publications:     st.publications.Load(),
		NoopPublishes:    st.noopPublishes.Load(),
		AbortedPublishes: st.abortedPublishes.Load(),
		ShardsRebuilt:    st.shardsRebuilt.Load(),
		ShardsReused:     st.shardsReused.Load(),
		EdgesReEncoded:   st.edgesReEncoded.Load(),
	}
}
