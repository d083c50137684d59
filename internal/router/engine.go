// Package router is the distributed shard plane: it serves every ProbeSim
// kernel over shards that may live in other processes, without any kernel
// knowing.
//
// The seam is ShardEngine, the transport-agnostic API of one shard
// server. It carries exactly the per-shard primitives the kernels need —
// report version and shape (Meta) and resolve shard adjacency blocks
// (ResolveShards, one call for one block or many) — plus the write plane
// (Apply, Publish) that keeps a worker's graph in lockstep with the
// topology. Two implementations exist: LocalEngine wraps an in-process
// shard.Store (the fast path every in-process server runs on — a Router
// over a single LocalEngine serves the store's own published snapshot,
// zero new allocations on the hot path, and applies writes straight to
// the engine), and RemoteEngine speaks the length-prefixed binary
// protocol of internal/rpcwire over TCP to a probesim-shardd worker.
//
// A Router runs over one replica set: every worker holds the whole
// graph, takes every write and serves every shard block, by the same
// power-of-two node stride internal/shard partitions with. Before a
// query on a view generation runs, the view fetches every shard block
// it lacks, split into one batched call per serving worker, and
// assembles the generation's blocks into one shard.StoreSnapshot; the
// kernels then walk and probe that snapshot with the same code as in
// process — which is what keeps results bit-identical between a single
// process and a fleet of workers. A new generation inherits every block
// whose shard version the workers report unchanged, so the read after a
// write fetches only the shards the write moved. The Router plugs into
// core.Executor through the SnapshotProvider seam, so single-source,
// top-k, progressive, join and component queries run unchanged over
// either engine.
//
// Failure semantics: every remote call is bounded by the query's deadline
// (propagated in the request's budget header) and by a call timeout. A
// fetch that fails on one worker in transport moves on to the next. A
// fetch that fails for good — every worker's transport error, the
// caller's deadline, a retired generation or a malformed block — fails
// the query before any kernel runs, with no partial result, and
// errors.Is finds the cause in the query's error chain (ErrTransport when
// every worker is dead, so the server answers 502). The blocks the
// failed attempt did fetch stay with the view, so the next query asks
// only for the rest.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"probesim/internal/graph"
	"probesim/internal/qtrace"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

// ErrTransport marks engine failures caused by the transport (dial,
// connection, timeout) rather than by the request: the worker is gone or
// unreachable, not wrong. errors.Is(err, ErrTransport) holds through
// every wrapping layer up to the query result.
var ErrTransport = errors.New("router: worker transport failure")

// ErrRetiredGeneration reports that an engine no longer retains the
// snapshot generation a request pinned. Queries see it only when they
// outlive genRetain publications; the next published view re-pins.
var ErrRetiredGeneration = errors.New("router: snapshot generation retired")

// ErrUnavailable reports that an engine could not take a write RIGHT NOW
// for a reason that is neither the request's fault nor the transport's —
// canonically a write-ahead-log append failure (disk full, fsync error)
// that was annulled before anything was applied. Like a transport
// failure it is retry-safe (the batch id was not consumed) and must
// never count as a rejection of the batch; unlike one it says nothing
// about the worker's liveness. It crosses the RPC boundary as its own
// error code.
var ErrUnavailable = errors.New("router: worker temporarily unavailable")

// Meta is an engine's published shape: what the Router needs to assemble
// (and validate) a composite view without touching any adjacency.
type Meta struct {
	Nodes   int
	Edges   int64
	Version uint64
	// LastBatch is the engine's durable apply-once watermark: the highest
	// batch id its store has decided. The router seeds its batch counter
	// from the fleet maximum, so ids stay monotonic across router
	// restarts (the routing tier itself keeps no durable state).
	LastBatch uint64
	Shift     uint32 // node stride is 1 << Shift
	Shards    int
	// ShardVersions, indexed by shard id, is the store version each
	// shard's block was encoded at. A shard's version rises whenever an
	// op touches its adjacency (a rejected batch's undo counts as another
	// touch), and replicas in lockstep agree on it, so an unchanged
	// version names an unchanged block: the router carries such blocks
	// into the next view instead of fetching them. Nil when the engine
	// does not report versions; the router then fetches every block of
	// every generation.
	ShardVersions []uint64
}

// ShardEngine is the transport-agnostic API of one shard server.
//
// Version arguments pin a snapshot generation: engines retain the last
// genRetain published generations (publications are cheap to retain —
// untouched shard CSRs are shared by reference), so a query keeps reading
// the exact generation its view was assembled from even while churn
// publishes newer ones. All methods are safe for concurrent use.
type ShardEngine interface {
	// Meta reports the engine's published shape, including the version
	// of every shard's block, and pins the current generation in its
	// retention ring.
	Meta(ctx context.Context) (Meta, error)

	// Ping reports the engine's published snapshot version and durable
	// apply-once watermark WITHOUT pinning a generation: the cheap probe
	// behind the background health loop and replica catch-up. It must be
	// answerable even while the engine is lagging or mid-recovery.
	Ping(ctx context.Context) (version, lastBatch uint64, err error)

	// ResolveShards returns shards' CSR adjacency blocks at the pinned
	// generation in one call, in request order: the blocks of the chunk
	// a view generation asks this engine for when its first query binds.
	// Any engine serves any shard. Blocks are immutable; local engines
	// return them by reference, remote engines decode them off the wire.
	ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error)

	// Apply applies a batch of edge mutations atomically (all-or-rollback)
	// to the engine's mutable graph and returns the post-apply mutation
	// version. Visibility waits for the next Publish.
	//
	// batch identifies the mutation for apply-once semantics: an engine
	// decides each non-zero id at most once, so re-sending a batch whose
	// reply was lost in transit is safe — the engine that already decided
	// it reports that decision without touching its graph, the one that
	// never saw it decides it now. Durable engines append the batch to
	// their write-ahead log before applying. batch 0 means
	// un-identified: not retry-safe, and the engine takes the next id
	// itself (from its log when armed). Only the Router's single-engine
	// fast path sends it.
	Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error)

	// Publish republishes the engine's snapshot if mutations are pending
	// and reports the resulting Meta.
	Publish(ctx context.Context) (Meta, error)

	// Close releases transport resources. The engine is unusable after.
	Close() error
}

// genRetain is how many published generations an engine keeps strongly
// reachable for version-pinned requests. Beyond it, a reader that slept
// through genRetain publications gets ErrRetiredGeneration and the query
// fails cleanly rather than reading a torn view.
const genRetain = 8

// generationRing retains the last genRetain published snapshots.
type generationRing struct {
	mu    sync.Mutex
	snaps []*shard.StoreSnapshot // ascending publication order
}

func (g *generationRing) pin(s *shard.StoreSnapshot) {
	if s == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, have := range g.snaps {
		if have == s {
			return
		}
	}
	g.snaps = append(g.snaps, s)
	if len(g.snaps) > genRetain {
		g.snaps = g.snaps[len(g.snaps)-genRetain:]
	}
}

func (g *generationRing) at(version uint64) *shard.StoreSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.snaps {
		if s.Version() == version {
			return s
		}
	}
	return nil
}

// LocalEngine serves a shard.Store in process: the fast path of the shard
// plane and the backend of every probesim-shardd worker. It serves every
// shard of the store, which holds the whole graph.
type LocalEngine struct {
	st   *shard.Store
	gens generationRing

	// wmu serializes the write plane (Apply) so the watermark check, the
	// WAL append and the store apply are one atomic step with respect to
	// other Apply calls.
	wmu sync.Mutex
	// wal, when set (SetWAL), receives every batch BEFORE it is
	// applied: the engine's durability point.
	wal *wal.Log
}

// NewLocalEngine wraps st as a shard engine serving every shard. It
// ignores any further arguments: they were the engine's index and group
// size in the earlier owned-stride layout, and bench/stack.go still
// passes them.
func NewLocalEngine(st *shard.Store, _ ...int) *LocalEngine {
	return &LocalEngine{st: st}
}

// Store returns the underlying shard store (for the worker's stats).
func (e *LocalEngine) Store() *shard.Store { return e.st }

// SetWAL arms the engine's durability point: every batch is appended to
// lg before it is applied (an un-identified batch 0 takes the id the log
// assigns), so an Apply the engine acknowledged survives a crash
// (persist.OpenStore recovers it on boot, and a fleet converges). Both
// probesim-shardd and the in-process server (server.SetWAL) arm it. Call
// before serving.
func (e *LocalEngine) SetWAL(lg *wal.Log) { e.wal = lg }

func (e *LocalEngine) meta(snap *shard.StoreSnapshot) Meta {
	m := Meta{
		Nodes:         snap.NumNodes(),
		Edges:         snap.NumEdges(),
		Version:       snap.Version(),
		LastBatch:     e.st.LastBatch(),
		Shift:         snap.Shift(),
		Shards:        snap.NumShards(),
		ShardVersions: make([]uint64, snap.NumShards()),
	}
	for p := range m.ShardVersions {
		m.ShardVersions[p] = snap.ShardVersion(p)
	}
	return m
}

// Meta implements ShardEngine.
func (e *LocalEngine) Meta(ctx context.Context) (Meta, error) {
	snap := e.st.Current()
	e.gens.pin(snap)
	return e.meta(snap), nil
}

// Ping implements ShardEngine: version + watermark, no generation pin.
func (e *LocalEngine) Ping(ctx context.Context) (uint64, uint64, error) {
	var version uint64
	if snap := e.st.Current(); snap != nil {
		version = snap.Version()
	}
	return version, e.st.LastBatch(), nil
}

// snapshotAt resolves the pinned generation for version.
func (e *LocalEngine) snapshotAt(version uint64) (*shard.StoreSnapshot, error) {
	if cur := e.st.Current(); cur != nil && cur.Version() == version {
		return cur, nil
	}
	if s := e.gens.at(version); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w: version %d", ErrRetiredGeneration, version)
}

// ResolveShards implements ShardEngine: every requested shard's block
// from one pinned generation, each checked against the shard range.
func (e *LocalEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	snap, err := e.snapshotAt(version)
	if err != nil {
		return nil, err
	}
	out := make([]graph.CSRShard, len(ps))
	for i, p := range ps {
		if p < 0 || p >= snap.NumShards() {
			return nil, fmt.Errorf("router: shard %d out of range [0, %d)", p, snap.NumShards())
		}
		out[i] = snap.Shard(p)
	}
	return out, nil
}

// Apply implements ShardEngine: all-or-rollback edge mutations with
// apply-once semantics per batch id. With a WAL armed (SetWAL) the batch
// is durable before it is applied — append-then-apply — so a crash
// between the reply being lost and the worker dying still leaves the
// batch recoverable, and the router's retry converges instead of
// double-applying.
//
// A re-sent id gets the batch's decision back without touching the
// graph: for the store's last batch that is nil if it applied and its
// rejection if it was rejected (shard.Store.Rejection; over RPC a
// semantic error), for lower ids nil. The record lives in the store's
// memory, so a worker restart between attempt and retry loses it, and
// the retry then reads nil.
func (e *LocalEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	tr, parent := qtrace.FromContext(ctx)
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if batch != 0 && batch <= e.st.LastBatch() {
		// Retry of a decided batch (the reply was lost, not the
		// decision): report the decision without touching the graph.
		return e.st.Version(), e.st.Rejection(batch)
	}
	if e.wal != nil {
		wref := tr.StartSpan("wal.append", parent)
		id, err := e.wal.Append(batch, ops)
		if err != nil {
			// The append was annulled (or the log fail-stopped): nothing
			// was applied and the id was not consumed, so the router may
			// retry the same batch — NOT a semantic rejection, which the
			// router would report to the client as the batch's decision.
			tr.EndSpanAnnot(wref, "outcome=error")
			return e.st.Version(), fmt.Errorf("%w: wal append: %v", ErrUnavailable, err)
		}
		tr.EndSpan(wref)
		// Decide under the id the log actually recorded — for batch 0 the
		// log self-assigned it, and the log and the store watermark must
		// name the same batch or crash replay diverges.
		batch = id
	}
	aref := tr.StartSpan("store.apply", parent)
	v, err := e.st.ApplyBatch(batch, ops)
	tr.EndSpan(aref)
	return v, err
}

// Publish implements ShardEngine.
func (e *LocalEngine) Publish(ctx context.Context) (Meta, error) {
	snap, err := e.st.PublishCtx(ctx)
	if err != nil {
		return Meta{}, err
	}
	e.gens.pin(snap)
	return e.meta(snap), nil
}

// Close implements ShardEngine; a local engine holds no transport.
func (e *LocalEngine) Close() error { return nil }
