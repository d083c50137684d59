// Package router is the distributed shard plane: it serves every ProbeSim
// kernel over shards that may live in other processes, without any kernel
// knowing.
//
// The seam is ShardEngine, the transport-agnostic API of one shard
// server. It carries exactly the per-shard primitives the kernels need —
// report version and shape (Meta), resolve shard adjacency blocks
// (ResolveShards), continue √c-walk segments (WalkBatch), one call for
// one item or many — plus the write plane (Apply, Publish) that keeps a
// worker's graph in lockstep with the topology. Two implementations
// exist: LocalEngine wraps an in-process shard.Store (today's fast path
// — a Router over a single all-owning LocalEngine serves the store's own
// published snapshot, zero new allocations on the hot path), and
// RemoteEngine speaks the length-prefixed binary protocol of
// internal/rpcwire over TCP to a probesim-shardd worker.
//
// A Router fans a query out to shard owners by the same power-of-two
// node stride internal/shard partitions with: shard adjacency blocks
// fault in lazily as the query's walk/probe frontier first touches them
// (and are cached for the generation), and walk segments run on the
// engine owning the walk's current node, hopping engines at shard
// crossings with the SplitMix64 state carried along — which is what keeps
// results bit-identical between a single process and a fleet of workers.
// The Router plugs into core.Executor through the SnapshotProvider seam,
// so single-source, top-k, progressive, join and component queries run
// unchanged over either engine.
//
// Failure semantics: every remote call is bounded by the query's deadline
// (propagated in the request's budget header) and by a call timeout. A
// worker dying mid-query trips the query's budget meter with the
// transport error — every kernel worker drains at its next checkpoint and
// the query returns its partial result wrapped in an error chain that
// errors.Is recognizes as ErrTransport. Partial-result-with-error
// semantics are therefore preserved across the wire.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
	"probesim/internal/shard"
	"probesim/internal/wal"
	"probesim/internal/walk"
	"probesim/internal/xrand"
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
// never trigger a fleet rollback; unlike one it says nothing about the
// worker's liveness. It crosses the RPC boundary as its own error code.
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
	Owned     []int // shard ids this engine serves, ascending
}

// Op is one edge mutation for the engine write plane.
type Op struct {
	Remove bool
	U, V   graph.NodeID
}

// WalkStart is one walk of a WalkBatch call: continue a √c-walk whose
// current node is Cur, drawing from the SplitMix64 stream at State,
// appending at most Room nodes.
type WalkStart struct {
	Cur   graph.NodeID
	State uint64
	Room  int
}

// WalkResult is one walk's outcome from a WalkBatch call: the nodes the
// segment appended, the stream state after them, and how it ended.
type WalkResult struct {
	Nodes  []graph.NodeID
	State  uint64
	Status SegmentStatus
}

// SegmentStatus reports how a walk segment ended.
type SegmentStatus uint8

const (
	// SegmentEnded: the walk terminated (survival draw, dead end, or the
	// caller's room was exhausted).
	SegmentEnded SegmentStatus = iota
	// SegmentHandoff: the walk stepped into a shard this engine does not
	// own; the caller must continue it on the owner of the last node.
	SegmentHandoff
	// SegmentStopped: the propagated budget stopped the engine-side walk
	// loop (deadline or cap from the request header).
	SegmentStopped
)

// ShardEngine is the transport-agnostic API of one shard server.
//
// Version arguments pin a snapshot generation: engines retain the last
// genRetain published generations (publications are cheap to retain —
// untouched shard CSRs are shared by reference), so a query keeps reading
// the exact generation its view was assembled from even while churn
// publishes newer ones. All methods are safe for concurrent use.
type ShardEngine interface {
	// Meta reports the engine's published shape and pins the current
	// generation in its retention ring.
	Meta(ctx context.Context) (Meta, error)

	// Ping reports the engine's published snapshot version and durable
	// apply-once watermark WITHOUT pinning a generation: the cheap probe
	// behind the background health loop and replica catch-up. It must be
	// answerable even while the engine is lagging or mid-recovery.
	Ping(ctx context.Context) (version, lastBatch uint64, err error)

	// WalkBatch continues N independent √c-walks at the pinned
	// generation in one call (one round trip on a remote engine): each
	// walk starts from its Cur (owned by this engine) with the walk RNG at
	// its State, appends at most Room nodes, and reports the RNG state
	// after the segment and how the segment ended. Each walk draws only
	// from its own state, so how walks are grouped into calls never
	// changes a bit of any walk. Results come back in request order. The
	// budget header bounds the engine-side loop.
	WalkBatch(ctx context.Context, version uint64, h budget.Header, sqrtC float64, walks []WalkStart) ([]WalkResult, error)

	// ResolveShards returns owned shards' CSR adjacency blocks at the
	// pinned generation in one call, in request order: every missing
	// block when a view materializes, a single one when a probe faults a
	// shard in. Blocks are immutable; local engines return them by
	// reference, remote engines decode them off the wire.
	ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error)

	// Apply applies a batch of edge mutations atomically (all-or-rollback)
	// to the engine's mutable graph and returns the post-apply mutation
	// version. Visibility waits for the next Publish.
	//
	// batch identifies the mutation for apply-once semantics: an engine
	// applies each non-zero id at most once, so re-sending a batch whose
	// reply was lost in transit is safe — the engine that already holds
	// it no-ops, the one that never saw it applies. Durable engines
	// append the batch to their write-ahead log before applying. batch 0
	// means un-identified (not retry-safe, not logged with an id).
	Apply(ctx context.Context, batch uint64, ops []Op) (uint64, error)

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
// plane and the backend of every probesim-shardd worker. Ownership is
// modular — an engine constructed with (index, group) owns every shard p
// with p % group == index — so a fleet of workers started with the same
// group and distinct indices covers the shard space exactly once, and
// ownership survives shard-set growth.
type LocalEngine struct {
	st    *shard.Store
	index int
	group int
	gens  generationRing

	// wmu serializes the write plane (Apply) so the watermark check, the
	// WAL append and the store apply are one atomic step with respect to
	// other Apply calls.
	wmu sync.Mutex
	// wal, when set (SetWAL), receives every identified batch BEFORE it
	// is applied: the worker's durability point.
	wal *wal.Log

	// segmentsStopped counts engine-side walk loops stopped by a
	// propagated budget — the observable fact that remote deadlines
	// actually reach the walk loop.
	segmentsStopped atomic.Int64

	// walkObserver, when set (SetWalkObserver), sees the entry node of
	// every walk delegated to this engine — the worker-side popularity
	// signal feeding a warm-standby hot-source tier.
	walkObserver func(graph.NodeID)
}

// NewLocalEngine wraps st as a shard engine owning shards p with
// p % group == index. group <= 1 means the engine owns everything.
//
// A scoped store (shard.NewStoreScoped) only holds data for its own
// stride, so the engine's ownership must match the store's scope
// exactly — a mismatch would read absent shards as empty adjacency and
// silently truncate walks. That configuration error is caught here.
func NewLocalEngine(st *shard.Store, index, group int) *LocalEngine {
	if group < 1 {
		group = 1
	}
	if index < 0 || index >= group {
		panic(fmt.Sprintf("router: engine index %d outside group of %d", index, group))
	}
	if si, sg := st.Scope(); sg > 1 && (si != index || sg != group) {
		panic(fmt.Sprintf("router: engine scope %d/%d does not match store scope %d/%d", index, group, si, sg))
	}
	return &LocalEngine{st: st, index: index, group: group}
}

// Store returns the underlying shard store (for the worker's stats).
func (e *LocalEngine) Store() *shard.Store { return e.st }

// SetWAL arms the engine's durability point: every identified batch is
// appended to lg before it is applied, so an Apply the engine
// acknowledged survives a worker crash (cmd/probesim-shardd recovers it
// on boot and the fleet converges). Call before serving.
func (e *LocalEngine) SetWAL(lg *wal.Log) { e.wal = lg }

// SetWalkObserver arms a per-walk callback: fn receives the entry node
// of every walk the router delegates here (WalkBatch).
// Entry nodes are a shard-local approximation of source popularity — a
// hot source's walks enter its owners' shards over and over — so a
// worker can run a warm-standby hot-source tier without seeing the HTTP
// query stream. fn runs on the RPC serving path: keep it cheap. Call
// before serving; not safe to swap concurrently with walks.
func (e *LocalEngine) SetWalkObserver(fn func(graph.NodeID)) { e.walkObserver = fn }

// SegmentsStopped reports how many walk segments the propagated budget
// stopped on this engine.
func (e *LocalEngine) SegmentsStopped() int64 { return e.segmentsStopped.Load() }

func (e *LocalEngine) owns(p int) bool { return p%e.group == e.index }

// checkShard validates one shard access against ownership and — on a
// scoped snapshot — against data presence. The presence check is the
// last line of defense against a scope mismatch: an absent shard's CSR
// decodes as all-empty adjacency, which would silently truncate walks
// instead of failing.
func (e *LocalEngine) checkShard(snap *shard.StoreSnapshot, p int) error {
	if p < 0 || p >= snap.NumShards() {
		return fmt.Errorf("router: shard %d out of range [0, %d)", p, snap.NumShards())
	}
	if !e.owns(p) {
		return fmt.Errorf("router: shard %d not owned by engine %d/%d", p, e.index, e.group)
	}
	if snap.Scoped() && !snap.ShardPresent(p) {
		return fmt.Errorf("router: shard %d absent from scoped store %d/%d", p, e.index, e.group)
	}
	return nil
}

func (e *LocalEngine) meta(snap *shard.StoreSnapshot) Meta {
	m := Meta{
		Nodes:     snap.NumNodes(),
		Edges:     snap.NumEdges(),
		Version:   snap.Version(),
		LastBatch: e.st.LastBatch(),
		Shift:     snap.Shift(),
		Shards:    snap.NumShards(),
	}
	for p := e.index; p < m.Shards; p += e.group {
		m.Owned = append(m.Owned, p)
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
// from one pinned generation, each checked against ownership.
func (e *LocalEngine) ResolveShards(ctx context.Context, version uint64, ps []int) ([]graph.CSRShard, error) {
	snap, err := e.snapshotAt(version)
	if err != nil {
		return nil, err
	}
	out := make([]graph.CSRShard, len(ps))
	for i, p := range ps {
		if err := e.checkShard(snap, p); err != nil {
			return nil, err
		}
		out[i] = snap.Shard(p)
	}
	return out, nil
}

// walkSegmentPollInterval is the per-step budget poll cadence of the
// engine-side walk loop. Segments are at most walk.HardCap steps, so a
// small interval keeps a propagated deadline's detection latency at a few
// steps without measurable cost.
const walkSegmentPollInterval = 8

// WalkBatch implements ShardEngine: the engine-side √c-walk loop. Each
// requested walk runs the exact step loop of walk.Generate (walk.Segment)
// over the pinned generation's devirtualized adjacency, bounded to owned
// shards and checkpointed against the propagated budget — N walks, one
// snapshot pin, one meter, one (remote) round trip.
func (e *LocalEngine) WalkBatch(ctx context.Context, version uint64, h budget.Header, sqrtC float64, walks []WalkStart) ([]WalkResult, error) {
	snap, err := e.snapshotAt(version)
	if err != nil {
		return nil, err
	}
	shift := snap.Shift()
	n := snap.NumNodes()
	m := h.Arm(ctx)
	cp := budget.NewCheckpoint(m, walkSegmentPollInterval)
	adj := graph.ResolveAdj(snap)
	var owns func(graph.NodeID) bool
	if e.group > 1 {
		owns = func(v graph.NodeID) bool { return e.owns(int(uint32(v) >> shift)) }
	}
	var stop func() bool
	if m != nil {
		stop = cp.Stop
	}
	tr, parent := qtrace.FromContext(ctx)
	ref := tr.StartSpan("walk.steps", parent)
	out := make([]WalkResult, len(walks))
	var rng xrand.RNG
	appended := 0
	for i, w := range walks {
		if w.Cur < 0 || int(w.Cur) >= n {
			tr.EndSpanAnnot(ref, "outcome=badnode")
			return nil, fmt.Errorf("router: walk node %d out of range [0, %d)", w.Cur, n)
		}
		if err := e.checkShard(snap, int(uint32(w.Cur)>>shift)); err != nil {
			tr.EndSpanAnnot(ref, "outcome=notowned")
			return nil, fmt.Errorf("router: walk node %d: %w", w.Cur, err)
		}
		if e.walkObserver != nil {
			e.walkObserver(w.Cur)
		}
		if m.Stopped() {
			// The budget tripped mid-batch: the rest of the walks report
			// stopped without stepping.
			out[i] = WalkResult{State: w.State, Status: SegmentStopped}
			continue
		}
		rng.SetState(w.State)
		nodes, ended := walk.Segment(&adj, w.Cur, w.Room, sqrtC, &rng, owns, stop, nil)
		status := SegmentHandoff
		switch {
		case m.Stopped():
			status = SegmentStopped
			e.segmentsStopped.Add(1)
		case ended:
			status = SegmentEnded
		case len(nodes) == 0:
			// A handoff with no progress means the caller routed the walk
			// to the wrong engine; surface it instead of looping forever.
			tr.EndSpanAnnot(ref, "outcome=noprogress")
			return nil, fmt.Errorf("router: walk segment made no progress at node %d", w.Cur)
		}
		out[i] = WalkResult{Nodes: nodes, State: rng.State(), Status: status}
		appended += len(nodes)
	}
	if tr != nil {
		tr.EndSpanAnnot(ref, fmt.Sprintf("walks=%d,nodes=%d", len(walks), appended))
	}
	return out, nil
}

// Apply implements ShardEngine: all-or-rollback edge mutations with
// apply-once semantics per batch id. With a WAL armed (SetWAL) the batch
// is durable before it is applied — append-then-apply — so a crash
// between the reply being lost and the worker dying still leaves the
// batch recoverable, and the router's retry converges instead of
// double-applying.
func (e *LocalEngine) Apply(ctx context.Context, batch uint64, ops []Op) (uint64, error) {
	tr, parent := qtrace.FromContext(ctx)
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if batch != 0 && batch <= e.st.LastBatch() {
		// Retry of a decided batch (the reply was lost, not the apply):
		// acknowledge without touching the graph.
		return e.st.Version(), nil
	}
	if e.wal != nil {
		wref := tr.StartSpan("wal.append", parent)
		wops := make([]wal.Op, len(ops))
		for i, op := range ops {
			wops[i] = wal.Op{Remove: op.Remove, U: op.U, V: op.V}
		}
		id, err := e.wal.Append(batch, wops)
		if err != nil {
			// The append was annulled (or the log fail-stopped): nothing
			// was applied and the id was not consumed, so the router may
			// retry the same batch — NOT a semantic rejection, which would
			// roll the healthy rest of the fleet back.
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
	sops := make([]shard.EdgeOp, len(ops))
	for i, op := range ops {
		sops[i] = shard.EdgeOp{Remove: op.Remove, U: op.U, V: op.V}
	}
	v, err := e.st.ApplyBatch(batch, sops)
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
