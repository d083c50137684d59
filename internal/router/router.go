package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/budget"
	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/walk"
	"probesim/internal/xrand"
)

// Router fans queries out over a fleet of replica groups and assembles
// their shards into one composite versioned view. It implements the same
// SnapshotProvider seam core.Executor already runs on, so the entire
// query stack — single-source, top-k, progressive, joins, components —
// works over a fleet of workers exactly as it does over an in-process
// store.
//
// Each group's members own the same shard stride, so every shard has as
// many owners as its group has replicas: reads fail over (and optionally
// hedge) across the group's members, writes broadcast to every member
// that is still in-order ("current"), and a member that misses batches
// is demoted and replayed back in from the router's replay ring. The
// SplitMix64 walk state travels on the wire, so which replica answers a
// given call never changes the bits of the result.
//
// Fast path: a Router over a single LocalEngine that owns every shard
// serves the store's own published StoreSnapshot (no wrapper, no new
// allocation, bit-identical and benchmark-identical to PR 2's direct
// store). Any other topology serves a *View whose shard blocks fault in
// from their owners on first touch.
type Router struct {
	groups []*replicaGroup
	fast   *shard.Store // non-nil: single all-owning local engine

	// mu serializes the control plane (Apply, PublishView, health
	// re-assembly, catch-up) — never the read path.
	mu  sync.Mutex
	cur atomic.Pointer[View]

	// nextBatch is the next batch id Apply will assign. Seeded at
	// assembly from the fleet's maximum durable watermark (Meta.
	// LastBatch), so ids stay monotonic across router restarts even
	// though the routing tier keeps no state of its own.
	nextBatch atomic.Uint64

	// ring remembers recent identified batches so a demoted member can
	// be replayed back to current without an operator restore. Guarded
	// by mu.
	ring *batchRing

	// hedge is the read-hedging policy; nil or !Enabled disables it.
	hedge atomic.Pointer[HedgePolicy]

	// Read- and write-path counters for /metrics.
	shardFetches     atomic.Int64
	shardFetchErrors atomic.Int64
	shardBatches     atomic.Int64
	walkHandoffs     atomic.Int64
	walkBatches      atomic.Int64
	walkDelegated    atomic.Int64
	walkLocalSegs    atomic.Int64
	applyRetries     atomic.Int64
	failovers        atomic.Int64
	hedgesSent       atomic.Int64
	hedgesWon        atomic.Int64
	applySkips       atomic.Int64
	catchupBatches   atomic.Int64
}

// controlTimeout bounds control-plane broadcasts (Meta, Publish, Apply)
// that carry no caller deadline.
const controlTimeout = 10 * time.Second

// New assembles a router of singleton groups — one engine per shard
// stride, no replication. It is the pre-replica constructor every
// single-owner topology (and test) uses; NewReplicated is the general
// form.
func New(engines ...ShardEngine) (*Router, error) {
	groups := make([][]ShardEngine, len(engines))
	for i, e := range engines {
		groups[i] = []ShardEngine{e}
	}
	return NewReplicated(groups)
}

// NewReplicated assembles a router over replica groups: the engines of
// groups[i] must own the same shard stride (same -index/-group), and
// distinct groups' strides must be disjoint and complete. It fetches
// every member's Meta, picks the most-advanced responder per group as
// the group's reference, demotes lagging replicas (they rejoin through
// the catch-up path), validates cross-group agreement, and builds the
// initial view. Every group needs at least one reachable member.
func NewReplicated(groups [][]ShardEngine) (*Router, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("router: no engines")
	}
	r := &Router{ring: newBatchRing(defaultReplayHorizon)}
	for _, ms := range groups {
		if len(ms) == 0 {
			return nil, fmt.Errorf("router: empty replica group")
		}
		g := &replicaGroup{}
		for _, e := range ms {
			g.members = append(g.members, &member{eng: e})
		}
		r.groups = append(r.groups, g)
	}
	if len(r.groups) == 1 && len(r.groups[0].members) == 1 {
		if le, ok := r.groups[0].members[0].eng.(*LocalEngine); ok && le.group == 1 {
			r.fast = le.st
			r.groups[0].members[0].current.Store(true)
			r.nextBatch.Store(le.st.LastBatch())
			return r, nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	metas := r.collect(ctx, func(e ShardEngine) (Meta, error) { return e.Meta(ctx) })
	view, err := r.assembleLocked(metas) // not shared yet; no lock needed
	if err != nil {
		return nil, err
	}
	for _, gm := range metas {
		for _, mm := range gm {
			if mm.err == nil && mm.m.LastBatch > r.nextBatch.Load() {
				r.nextBatch.Store(mm.m.LastBatch)
			}
		}
	}
	r.cur.Store(view)
	return r, nil
}

// NewLocal is the single-process configuration: a router whose only
// engine is the store itself. It serves the store's own snapshots with
// zero added indirection.
func NewLocal(st *shard.Store) *Router {
	r, err := New(NewLocalEngine(st, 0, 1))
	if err != nil {
		panic(err) // unreachable: a single local engine cannot fail Meta
	}
	return r
}

// SetHedge installs the read-hedging policy. Safe to call while serving.
func (r *Router) SetHedge(hp HedgePolicy) {
	r.hedge.Store(&hp)
}

// SetReplayHorizon resizes the batch replay ring (default 1024): how
// many recent batches a demoted replica can be behind and still rejoin
// without an operator restore. Call before serving writes — resizing
// drops remembered batches.
func (r *Router) SetReplayHorizon(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.ring = newBatchRing(n)
	r.mu.Unlock()
}

// memberMeta is one member's answer to a control-plane broadcast.
type memberMeta struct {
	m   Meta
	err error
}

// errSkippedMember marks a member a broadcast never called because it
// was already demoted.
var errSkippedMember = errors.New("router: member not current; skipped")

// collect runs one engine call on every member of every group
// concurrently and returns all results, aligned with r.groups.
func (r *Router) collect(ctx context.Context, call func(ShardEngine) (Meta, error)) [][]memberMeta {
	out := make([][]memberMeta, len(r.groups))
	var wg sync.WaitGroup
	for gi, g := range r.groups {
		out[gi] = make([]memberMeta, len(g.members))
		for mi, m := range g.members {
			wg.Add(1)
			go func(slot *memberMeta, e ShardEngine) {
				defer wg.Done()
				slot.m, slot.err = call(e)
			}(&out[gi][mi], m.eng)
		}
	}
	wg.Wait()
	return out
}

// collectCurrent is collect restricted to current members; demoted ones
// get errSkippedMember so assembly leaves their state alone.
func (r *Router) collectCurrent(ctx context.Context, call func(ShardEngine) (Meta, error)) [][]memberMeta {
	out := make([][]memberMeta, len(r.groups))
	var wg sync.WaitGroup
	for gi, g := range r.groups {
		out[gi] = make([]memberMeta, len(g.members))
		for mi, m := range g.members {
			if !m.current.Load() {
				out[gi][mi].err = errSkippedMember
				continue
			}
			wg.Add(1)
			go func(slot *memberMeta, e ShardEngine) {
				defer wg.Done()
				slot.m, slot.err = call(e)
			}(&out[gi][mi], m.eng)
		}
	}
	wg.Wait()
	return out
}

// assembleLocked validates the metas against each other, updates member
// current/lag state, and builds a View. Caller holds mu (or owns r
// exclusively, as in NewReplicated).
//
// Within a group, the most-advanced responder (highest watermark, then
// highest version) is the reference; replicas behind it are demoted for
// catch-up rather than failing the fleet — that is the whole point of
// replication. Across groups the references must agree exactly, as
// before: there is no second owner to cover a diverged stride.
func (r *Router) assembleLocked(metas [][]memberMeta) (*View, error) {
	chosen := make([]Meta, len(r.groups))
	for gi, g := range r.groups {
		best := -1
		for mi := range g.members {
			mm := metas[gi][mi]
			if mm.err != nil {
				continue
			}
			if best == -1 || mm.m.LastBatch > metas[gi][best].m.LastBatch ||
				(mm.m.LastBatch == metas[gi][best].m.LastBatch && mm.m.Version > metas[gi][best].m.Version) {
				best = mi
			}
		}
		if best == -1 {
			var ferr error
			for mi := range g.members {
				if err := metas[gi][mi].err; err != nil && !errors.Is(err, errSkippedMember) {
					ferr = err
					break
				}
			}
			if ferr == nil {
				ferr = fmt.Errorf("%w: every replica demoted; awaiting catch-up", ErrTransport)
			}
			return nil, fmt.Errorf("router: group %d: %w", gi, ferr)
		}
		cm := metas[gi][best].m
		chosen[gi] = cm
		for mi, m := range g.members {
			mm := metas[gi][mi]
			if mm.err != nil {
				if !errors.Is(mm.err, errSkippedMember) {
					m.setLag(mm.err.Error())
				}
				continue
			}
			if m.divergent.Load() {
				// Matching counters are not proof of matching state;
				// divergence only clears with an operator restore.
				continue
			}
			if mm.m.LastBatch != cm.LastBatch {
				m.setLag(fmt.Sprintf("at watermark %d behind group watermark %d; awaiting catch-up replay", mm.m.LastBatch, cm.LastBatch))
				continue
			}
			if mm.m.Nodes != cm.Nodes || mm.m.Edges != cm.Edges ||
				mm.m.Shift != cm.Shift || mm.m.Shards != cm.Shards ||
				!slices.Equal(mm.m.Owned, cm.Owned) {
				return nil, fmt.Errorf("router: group %d replicas %d and %d disagree at watermark %d: (n=%d m=%d shift=%d shards=%d) vs (n=%d m=%d shift=%d shards=%d) — replica state diverged; restore one from the other",
					gi, best, mi, cm.LastBatch,
					cm.Nodes, cm.Edges, cm.Shift, cm.Shards,
					mm.m.Nodes, mm.m.Edges, mm.m.Shift, mm.m.Shards)
			}
			if mm.m.Version != cm.Version {
				// Same watermark and shape: the member only missed a
				// republish; catch-up levels it at the next pass.
				m.setLag(fmt.Sprintf("published version %d behind group version %d; awaiting republish", mm.m.Version, cm.Version))
				continue
			}
			m.acked.Store(mm.m.LastBatch)
			m.current.Store(true)
			m.clearLag()
		}
	}
	m0 := chosen[0]
	for gi, m := range chosen[1:] {
		if m.Nodes != m0.Nodes || m.Edges != m0.Edges || m.Version != m0.Version ||
			m.Shift != m0.Shift || m.Shards != m0.Shards {
			return nil, fmt.Errorf("router: groups 0 and %d disagree: (n=%d m=%d v=%d shift=%d shards=%d) vs (n=%d m=%d v=%d shift=%d shards=%d)",
				gi+1, m0.Nodes, m0.Edges, m0.Version, m0.Shift, m0.Shards,
				m.Nodes, m.Edges, m.Version, m.Shift, m.Shards)
		}
		if m.LastBatch != m0.LastBatch {
			return nil, fmt.Errorf("router: groups 0 and %d at batch watermarks %d and %d — a worker missed a batch while down; restore it from its data dir or a fleet peer's",
				gi+1, m0.LastBatch, m.LastBatch)
		}
	}
	ownerOf := make([]int32, m0.Shards)
	for p := range ownerOf {
		ownerOf[p] = -1
	}
	for gi, m := range chosen {
		for _, p := range m.Owned {
			if p < 0 || p >= m0.Shards {
				return nil, fmt.Errorf("router: group %d claims shard %d of %d", gi, p, m0.Shards)
			}
			if ownerOf[p] != -1 {
				return nil, fmt.Errorf("router: shard %d owned by groups %d and %d", p, ownerOf[p], gi)
			}
			ownerOf[p] = int32(gi)
		}
	}
	for p, o := range ownerOf {
		if o == -1 {
			return nil, fmt.Errorf("router: shard %d has no owner", p)
		}
	}
	return &View{
		r:       r,
		nodes:   m0.Nodes,
		edges:   m0.Edges,
		version: m0.Version,
		shift:   m0.Shift,
		ownerOf: ownerOf,
		blocks:  make([]blockSlot, m0.Shards),
	}, nil
}

// PublishedView implements core.SnapshotProvider. It never blocks.
func (r *Router) PublishedView() graph.VersionedView {
	if r.fast != nil {
		return r.fast.Current()
	}
	return r.cur.Load()
}

// PublishView implements core.SnapshotProvider: it asks every current
// member to republish, validates agreement, and installs a fresh
// composite view. An unchanged version keeps the current view (and its
// warm block cache). On failure the previously published view stays
// current and is returned alongside the error.
func (r *Router) PublishView(ctx context.Context) (graph.VersionedView, error) {
	if r.fast != nil {
		return r.fast.PublishCtx(ctx)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(ctx)
}

func (r *Router) publishLocked(ctx context.Context) (graph.VersionedView, error) {
	prev := r.cur.Load()
	metas := r.collectCurrent(ctx, func(e ShardEngine) (Meta, error) { return e.Publish(ctx) })
	view, err := r.assembleLocked(metas)
	if err != nil {
		return prev, fmt.Errorf("router: publication failed: %w", err)
	}
	if prev != nil && view.version == prev.version {
		return prev, nil // keep the warm block cache
	}
	r.cur.Store(view)
	return view, nil
}

// applyAttempts bounds how often one broadcast re-sends a batch to an
// engine that failed with a transport error. Each retry waits out a
// slice of the remote backoff window first, so a worker that blips
// (connection reset, brief restart) converges without operator help.
const (
	applyAttempts   = 4
	applyRetryDelay = 250 * time.Millisecond
)

// applyResult is one member's outcome for one broadcast batch.
type applyResult struct {
	version   uint64
	err       error
	attempted bool
}

// Apply assigns the batch the next monotonic id and applies it to every
// current member of every group (each engine is all-or-rollback on its
// own, and applies each id at most once).
//
// The batch id is what closes the lost-reply window: a worker that
// applied the batch but whose reply was lost acknowledges the retry
// without re-applying, and a worker that never saw it applies it now —
// so on ErrTransport the router RETRIES the same id instead of rolling
// the fleet back. With replication the failure mode narrows further: a
// member that exhausts its retries is demoted (its group's surviving
// members hold the batch durably) and replayed back in from the replay
// ring, so a single replica death never fails a write. Only a group
// with NO surviving acker fails the write, with an error that says the
// batch may be partially applied and a re-submit is not safe blind.
//
// A SEMANTIC failure (bad op) is deterministic — every member that
// applied rolls back via the inverse batch under one fresh shared id,
// converging the fleet on the pre-batch graph, and the client gets the
// rejection.
func (r *Router) Apply(ctx context.Context, ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.catchUpLocked(ctx)
	batch := r.nextBatch.Add(1)
	r.ring.put(batch, ops)
	res := r.applyBroadcastLocked(ctx, batch, ops)

	var semanticErr, groupLostErr error
	var versions []uint64
	for gi, g := range r.groups {
		decided := false
		var firstFail error
		for mi, m := range g.members {
			rr := res[gi][mi]
			if !rr.attempted {
				continue
			}
			switch {
			case rr.err == nil:
				decided = true
				m.acked.Store(batch)
				versions = append(versions, rr.version)
			case errors.Is(rr.err, ErrTransport):
				m.setLag(fmt.Sprintf("missed batch %d (apply retries exhausted: %v); awaiting catch-up replay", batch, rr.err))
				if firstFail == nil {
					firstFail = fmt.Errorf("router: group %d replica %d: apply retries exhausted; the worker either holds batch %d durably (a re-send of the id is a no-op) or will be replayed from the ring when it returns: %w", gi, mi, batch, rr.err)
				}
			case errors.Is(rr.err, ErrUnavailable):
				// The engine refused retry-safely (annulled WAL append): it
				// provably does NOT hold the batch, so it is demoted like a
				// transport loss and replayed later.
				m.setLag(fmt.Sprintf("could not log batch %d (%v); awaiting catch-up replay", batch, rr.err))
				if firstFail == nil {
					firstFail = fmt.Errorf("router: group %d replica %d: apply retries exhausted; the worker could not log batch %d (it does not hold it; the group's appliers do): %w", gi, mi, batch, rr.err)
				}
			default:
				decided = true
				m.acked.Store(batch)
				if semanticErr == nil {
					semanticErr = fmt.Errorf("router: group %d replica %d: %w", gi, mi, rr.err)
				}
			}
		}
		if !decided && groupLostErr == nil {
			if firstFail == nil {
				firstFail = fmt.Errorf("%w: every replica demoted; awaiting catch-up", ErrTransport)
			}
			groupLostErr = fmt.Errorf("router: group %d: no replica took batch %d: %w", gi, batch, firstFail)
		}
	}
	if semanticErr != nil {
		// Deterministic rejection: ONE fresh id covers the whole rollback
		// round so the fleet's watermarks converge — members that applied
		// get the inverse batch under it, members that rejected get an
		// empty batch under it (watermark advance, no mutation). The ring
		// entry for the level id is empty too: a demoted member replaying
		// the forward batch in order will deterministically reject it just
		// as the live members did, then level on the empty batch.
		inverse := make([]Op, len(ops))
		for i := range ops {
			inv := ops[len(ops)-1-i]
			inv.Remove = !inv.Remove
			inverse[i] = inv
		}
		level := r.nextBatch.Add(1)
		r.ring.put(level, nil)
		var divergedErr error
		for gi, g := range r.groups {
			for mi, m := range g.members {
				rr := res[gi][mi]
				if !rr.attempted {
					continue
				}
				switch {
				case rr.err == nil:
					if _, lerr := m.eng.Apply(ctx, level, inverse); lerr != nil {
						m.markDivergent(fmt.Sprintf("applied batch %d but missed its rollback %d (%v); restore from a fleet peer", batch, level, lerr))
						if divergedErr == nil {
							divergedErr = fmt.Errorf("router: group %d replica %d diverged (rollback failed: %v) after %w", gi, mi, lerr, semanticErr)
						}
					} else {
						m.acked.Store(level)
					}
				case errors.Is(rr.err, ErrUnavailable):
					// Provably never applied the forward batch; the ring
					// replays forward (deterministic reject) + level for it.
				case errors.Is(rr.err, ErrTransport):
					// Whether the member applied the forward batch before the
					// transport cut is unknowable, and the batch is now rolled
					// back fleet-wide — a ring replay cannot prove
					// convergence, so require an operator restore.
					m.markDivergent(fmt.Sprintf("batch %d was rolled back while the replica was unreachable; whether it applied is unknown — restore from a fleet peer", batch))
				default:
					if _, lerr := m.eng.Apply(ctx, level, nil); lerr != nil {
						m.markDivergent(fmt.Sprintf("rejected batch %d but missed its leveling batch %d (%v); restore from a fleet peer", batch, level, lerr))
						if divergedErr == nil {
							divergedErr = fmt.Errorf("router: group %d replica %d diverged (rollback failed: %v) after %w", gi, mi, lerr, semanticErr)
						}
					} else {
						m.acked.Store(level)
					}
				}
			}
		}
		if divergedErr != nil {
			return divergedErr
		}
		return semanticErr
	}
	if groupLostErr != nil {
		// NO rollback: the batch is identified and durable on every member
		// that took it, and an unreachable group either holds it (its log
		// replays it on reboot, and a later re-send of the id is a no-op)
		// or missed it entirely — which catch-up replay or the watermark-
		// agreement check repairs or reports, instead of throwing away the
		// healthy groups' acknowledged work.
		return groupLostErr
	}
	for i, v := range versions[1:] {
		if v != versions[0] {
			return fmt.Errorf("router: appliers at versions %d and %d after batch %d (replica %d of the ack set)", versions[0], v, batch, i+1)
		}
	}
	return nil
}

// applyBroadcastLocked sends one identified batch to every current
// member concurrently, retrying transport failures per member. Demoted
// members are skipped (counted) — they get the batch later, in order,
// from the replay ring.
func (r *Router) applyBroadcastLocked(ctx context.Context, batch uint64, ops []Op) [][]applyResult {
	out := make([][]applyResult, len(r.groups))
	var wg sync.WaitGroup
	for gi, g := range r.groups {
		out[gi] = make([]applyResult, len(g.members))
		for mi, m := range g.members {
			if !m.current.Load() {
				r.applySkips.Add(1)
				continue
			}
			out[gi][mi].attempted = true
			wg.Add(1)
			go func(rr *applyResult, e ShardEngine) {
				defer wg.Done()
				for attempt := 0; ; attempt++ {
					rr.version, rr.err = e.Apply(ctx, batch, ops)
					retryable := errors.Is(rr.err, ErrTransport) || errors.Is(rr.err, ErrUnavailable)
					if rr.err == nil || !retryable || attempt+1 >= applyAttempts {
						return
					}
					r.applyRetries.Add(1)
					select {
					case <-ctx.Done():
						return
					case <-time.After(applyRetryDelay):
					}
				}
			}(&out[gi][mi], m.eng)
		}
	}
	wg.Wait()
	return out
}

// catchUpLocked tries to bring every demoted, reachable member back to
// current: probe its durable watermark with Ping, replay the missed
// batches from the ring in order, republish it so it can serve pinned
// reads again, and re-admit it to the write broadcast. Members whose
// gap has left the ring (or that are marked divergent) stay demoted
// with an operator-facing reason. Caller holds mu.
func (r *Router) catchUpLocked(ctx context.Context) (readmitted int) {
	next := r.nextBatch.Load()
	for _, g := range r.groups {
		for _, m := range g.members {
			if m.current.Load() || m.divergent.Load() {
				continue
			}
			_, last, err := m.eng.Ping(ctx)
			if err != nil {
				continue // still unreachable; next pass retries
			}
			if last > next {
				m.markDivergent(fmt.Sprintf("replica watermark %d is ahead of the router's %d; another writer touched it — restore from a fleet peer", last, next))
				continue
			}
			caught := true
			for id := last + 1; id <= next; id++ {
				ops, ok := r.ring.get(id)
				if !ok {
					m.setLag(fmt.Sprintf("missed batch %d, which has left the %d-batch replay ring; restore from a fleet peer", id, len(r.ring.entries)))
					caught = false
					break
				}
				if _, aerr := m.eng.Apply(ctx, id, ops); aerr != nil {
					if errors.Is(aerr, ErrTransport) || errors.Is(aerr, ErrUnavailable) {
						caught = false
						break // went away again; next pass resumes from its watermark
					}
					// Semantic rejection during replay is a decision — the
					// live members rejected this batch too (the ring holds
					// its forward ops; the level batch follows as empty).
				}
				r.catchupBatches.Add(1)
			}
			if !caught {
				continue
			}
			if _, perr := m.eng.Publish(ctx); perr != nil {
				continue // replayed but not republished; next pass finishes
			}
			m.acked.Store(next)
			m.current.Store(true)
			m.clearLag()
			readmitted++
		}
	}
	return readmitted
}

// AddEdge implements the server's mutator seam.
func (r *Router) AddEdge(u, v graph.NodeID) error {
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	return r.Apply(ctx, []Op{{U: u, V: v}})
}

// RemoveEdge implements the server's mutator seam.
func (r *Router) RemoveEdge(u, v graph.NodeID) error {
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	return r.Apply(ctx, []Op{{Remove: true, U: u, V: v}})
}

// CheckHealth probes every member (Ping also refreshes RemoteEngine
// health state), demotes current members that fail the probe, runs the
// catch-up pass, and validates agreement. It returns nil while every
// group has at least one current member at an agreed version — the
// replicated fleet is healthy even with individual replicas down.
func (r *Router) CheckHealth(ctx context.Context) error {
	if r.fast != nil {
		return nil
	}
	pings := r.collect(ctx, func(e ShardEngine) (Meta, error) {
		v, last, err := e.Ping(ctx)
		return Meta{Version: v, LastBatch: last}, err
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	for gi, g := range r.groups {
		for mi, m := range g.members {
			if err := pings[gi][mi].err; err != nil && m.current.Load() {
				m.setLag(fmt.Sprintf("health probe failed: %v", err))
			}
		}
	}
	readmitted := r.catchUpLocked(ctx)
	var firstErr error
	if readmitted > 0 {
		// Level the published versions and refresh the composite view so
		// re-admitted members serve pinned reads again immediately.
		if _, err := r.publishLocked(ctx); err != nil {
			firstErr = err
		}
	}
	for gi, g := range r.groups {
		anyCurrent := false
		for _, m := range g.members {
			if m.current.Load() {
				anyCurrent = true
			}
		}
		if !anyCurrent && firstErr == nil {
			firstErr = fmt.Errorf("router: group %d has no serving replica", gi)
		}
	}
	if readmitted == 0 && firstErr == nil {
		// Version agreement among current members from this probe round.
		// Skipped when members were just re-admitted: those pings predate
		// the republish and would alarm falsely; the next tick verifies.
		var v0 uint64
		seen := false
		for gi, g := range r.groups {
			for mi, m := range g.members {
				if !m.current.Load() || pings[gi][mi].err != nil {
					continue
				}
				v := pings[gi][mi].m.Version
				if !seen {
					v0, seen = v, true
				} else if v != v0 {
					firstErr = fmt.Errorf("router: serving replicas at versions %d and %d", v0, v)
				}
			}
		}
	}
	return firstErr
}

// StartHealth runs CheckHealth every interval on a background goroutine
// until the returned stop function is called (idempotent). This is the
// loop that demotes dead replicas and replays recovered ones back in;
// failures beyond that only update the per-member state the stats
// report — the next query or write surfaces the error itself.
func (r *Router) StartHealth(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	ch := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ch:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				_ = r.CheckHealth(ctx)
				cancel()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// Close closes every member engine.
func (r *Router) Close() error {
	var first error
	for _, g := range r.groups {
		for _, m := range g.members {
			if err := m.eng.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// WorkerStat is one member's serving-stats row.
type WorkerStat struct {
	Addr       string `json:"addr"`
	Group      int    `json:"group"`
	Replica    int    `json:"replica"`
	Healthy    bool   `json:"healthy"`
	Current    bool   `json:"current"`
	Acked      uint64 `json:"acked"`
	Version    uint64 `json:"version"`
	Shards     int    `json:"shards"`
	Calls      int64  `json:"calls"`
	Errors     int64  `json:"errors"`
	Reconnects int64  `json:"reconnects"`
	LastError  string `json:"lastError,omitempty"`
	LagError   string `json:"lagError,omitempty"`
}

// WorkerStats reports one row per member for /stats and /metrics.
func (r *Router) WorkerStats() []WorkerStat {
	var out []WorkerStat
	var owned []int
	if v := r.cur.Load(); v != nil {
		owned = make([]int, len(r.groups))
		for _, o := range v.ownerOf {
			owned[o]++
		}
	}
	for gi, g := range r.groups {
		for mi, m := range g.members {
			st := WorkerStat{
				Addr: "local", Healthy: true,
				Group: gi, Replica: mi,
				Current:  m.current.Load(),
				Acked:    m.acked.Load(),
				LagError: m.lagErrText(),
			}
			switch eng := m.eng.(type) {
			case *RemoteEngine:
				st.Addr = eng.Addr()
				st.Healthy = eng.Healthy()
				st.Version = eng.LastVersion()
				st.Calls, st.Errors, st.Reconnects = eng.Counters()
				st.LastError = eng.LastError()
			case *LocalEngine:
				if snap := eng.st.Current(); snap != nil {
					st.Version = snap.Version()
				}
			}
			if owned != nil {
				st.Shards = owned[gi]
			}
			out = append(out, st)
		}
	}
	return out
}

// Counters are the router's aggregate read- and write-path counters.
type Counters struct {
	ShardFetches     int64
	ShardFetchErrors int64
	// ShardBatches counts batched ResolveShards round trips (composite-
	// view materialization): ShardFetches/ShardBatches is the average
	// blocks-per-RPC amortization the batch plane buys.
	ShardBatches int64
	WalkHandoffs int64
	// WalkBatches counts batched WalkBatch round trips and WalkDelegated
	// the walks they carried (WalkDelegated/WalkBatches is the average
	// batch size); WalkLocalSegments counts walk segments the router
	// stepped itself over cached blocks, with no RPC at all. The
	// delegation rate of the walk plane is
	// WalkDelegated / (WalkDelegated + WalkLocalSegments).
	WalkBatches       int64
	WalkDelegated     int64
	WalkLocalSegments int64
	// ApplyRetries counts per-member re-sends of an identified batch
	// after a transport failure — each one is a lost-reply window the
	// batch ids closed.
	ApplyRetries int64
	// Failovers counts reads retried on another replica after a
	// retryable failure; HedgesSent/HedgesWon count speculative
	// duplicate reads and how many beat the primary.
	Failovers  int64
	HedgesSent int64
	HedgesWon  int64
	// ApplySkips counts write broadcasts that skipped a demoted member;
	// CatchupBatches counts batches replayed from the ring to bring
	// members back to current.
	ApplySkips     int64
	CatchupBatches int64
}

// Counters reports the read/write-path counters for /metrics.
func (r *Router) Counters() Counters {
	return Counters{
		ShardFetches:      r.shardFetches.Load(),
		ShardFetchErrors:  r.shardFetchErrors.Load(),
		ShardBatches:      r.shardBatches.Load(),
		WalkHandoffs:      r.walkHandoffs.Load(),
		WalkBatches:       r.walkBatches.Load(),
		WalkDelegated:     r.walkDelegated.Load(),
		WalkLocalSegments: r.walkLocalSegs.Load(),
		ApplyRetries:      r.applyRetries.Load(),
		Failovers:         r.failovers.Load(),
		HedgesSent:        r.hedgesSent.Load(),
		HedgesWon:         r.hedgesWon.Load(),
		ApplySkips:        r.applySkips.Load(),
		CatchupBatches:    r.catchupBatches.Load(),
	}
}

// Distributed reports whether the router serves through the generic
// (multi-engine or remote) path rather than the single-store fast path.
func (r *Router) Distributed() bool { return r.fast == nil }

// LocalStore returns the fast-path store, or nil in a distributed
// topology. The serving stack uses it to keep the sharded store's
// publication and GC stats on /stats when the router is local.
func (r *Router) LocalStore() *shard.Store { return r.fast }

// View is the composite read side the generic path serves: the shape and
// version agreed by every group, plus per-shard adjacency blocks that
// fault in from their owner group on first touch and stay cached for the
// generation. It implements graph.VersionedView for shape readers
// (stats, validation) and core.QueryBinder so queries run through a
// BoundView that carries their context and budget meter.
type View struct {
	r       *Router
	nodes   int
	edges   int64
	version uint64
	shift   uint32
	ownerOf []int32 // shard -> group index
	blocks  []blockSlot

	// adj is the fully materialized devirtualized adjacency over every
	// shard block, built at most once per view generation (materialize)
	// and shared by every query on it. adjMu single-flights the build.
	adjMu sync.Mutex
	adj   atomic.Pointer[graph.Adj]
}

type blockSlot struct {
	mu  sync.Mutex // single-flight fetch
	ptr atomic.Pointer[graph.CSRShard]
}

var _ graph.VersionedView = (*View)(nil)

// NumNodes implements graph.View.
func (v *View) NumNodes() int { return v.nodes }

// NumEdges implements graph.View.
func (v *View) NumEdges() int64 { return v.edges }

// Version implements graph.VersionedView.
func (v *View) Version() uint64 { return v.version }

// block returns shard p's adjacency block, fetching it from the owner
// group (any replica, with failover) on first touch. Concurrent first
// touches single-flight on the slot mutex.
func (v *View) block(ctx context.Context, p int) (*graph.CSRShard, error) {
	slot := &v.blocks[p]
	if b := slot.ptr.Load(); b != nil {
		return b, nil
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if b := slot.ptr.Load(); b != nil {
		return b, nil
	}
	v.r.shardFetches.Add(1)
	g := v.r.groups[v.ownerOf[p]]
	csrs, err := groupRead(v.r, ctx, g, "rpc.shard", func(ctx context.Context, e ShardEngine) ([]graph.CSRShard, error) {
		return e.ResolveShards(ctx, v.version, []int{p})
	})
	if err == nil && len(csrs) != 1 {
		err = fmt.Errorf("router: group %d returned %d shard blocks for 1 requested", v.ownerOf[p], len(csrs))
	}
	if err != nil {
		v.r.shardFetchErrors.Add(1)
		return nil, err
	}
	csr := &csrs[0]
	slot.ptr.Store(csr)
	return csr, nil
}

// materialize pulls every not-yet-cached shard block — ONE batched
// ResolveShards call per owner group, concurrently across groups — and
// builds the same dense PackSpan span arrays the in-process sharded
// snapshot serves, so probe hot loops index slices instead of paying an
// interface call per edge list. The result is cached on the view: later
// queries on the same generation reuse it without any RPC.
func (v *View) materialize(ctx context.Context) (*graph.Adj, error) {
	if a := v.adj.Load(); a != nil {
		return a, nil
	}
	v.adjMu.Lock()
	defer v.adjMu.Unlock()
	if a := v.adj.Load(); a != nil {
		return a, nil
	}
	missing := make([][]int, len(v.r.groups))
	for p := range v.blocks {
		if v.blocks[p].ptr.Load() == nil {
			gi := v.ownerOf[p]
			missing[gi] = append(missing[gi], p)
		}
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for gi := range missing {
		ps := missing[gi]
		if len(ps) == 0 {
			continue
		}
		v.r.shardBatches.Add(1)
		v.r.shardFetches.Add(int64(len(ps)))
		wg.Add(1)
		go func(gi int, ps []int) {
			defer wg.Done()
			g := v.r.groups[gi]
			csrs, err := groupRead(v.r, ctx, g, "rpc.shards", func(ctx context.Context, e ShardEngine) ([]graph.CSRShard, error) {
				return e.ResolveShards(ctx, v.version, ps)
			})
			if err == nil && len(csrs) != len(ps) {
				err = fmt.Errorf("router: group %d returned %d shard blocks for %d requested", gi, len(csrs), len(ps))
			}
			if err != nil {
				v.r.shardFetchErrors.Add(1)
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			for i, p := range ps {
				csr := csrs[i]
				slot := &v.blocks[p]
				slot.mu.Lock()
				if slot.ptr.Load() == nil {
					slot.ptr.Store(&csr)
				}
				slot.mu.Unlock()
			}
		}(gi, ps)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	stride := 1 << v.shift
	csrs := make([]graph.CSRShard, len(v.blocks))
	in := make([]uint64, v.nodes)
	out := make([]uint64, v.nodes)
	for p := range v.blocks {
		blk := v.blocks[p].ptr.Load()
		csrs[p] = *blk
		base := p * stride
		local := min(stride, v.nodes-base)
		for l := 0; l < local; l++ {
			in[base+l] = graph.PackSpan(blk.InOff[l], blk.InOff[l+1])
			out[base+l] = graph.PackSpan(blk.OutOff[l], blk.OutOff[l+1])
		}
	}
	adj := graph.NewShardedAdj(v, csrs, v.shift, in, out)
	v.adj.Store(&adj)
	return &adj, nil
}

// cachedView exposes only already-fetched blocks as a graph.View for the
// router-side walk stepper. It never faults a block in: the stepper's
// owns predicate guarantees it is only asked for nodes whose shard block
// is cached.
type cachedView struct{ v *View }

func (c cachedView) NumNodes() int   { return c.v.nodes }
func (c cachedView) NumEdges() int64 { return c.v.edges }

func (c cachedView) InNeighbors(nd graph.NodeID) []graph.NodeID {
	b := c.v.blocks[uint32(nd)>>c.v.shift].ptr.Load()
	l := uint32(nd) & (uint32(1)<<c.v.shift - 1)
	return b.InDst[b.InOff[l]:b.InOff[l+1]]
}

func (c cachedView) OutNeighbors(nd graph.NodeID) []graph.NodeID {
	b := c.v.blocks[uint32(nd)>>c.v.shift].ptr.Load()
	l := uint32(nd) & (uint32(1)<<c.v.shift - 1)
	return b.OutDst[b.OutOff[l]:b.OutOff[l+1]]
}

func (c cachedView) InDegree(nd graph.NodeID) int  { return len(c.InNeighbors(nd)) }
func (c cachedView) OutDegree(nd graph.NodeID) int { return len(c.OutNeighbors(nd)) }

// steppingAdj returns the adjacency router-side walk stepping runs over:
// the fully materialized devirtualized Adj when the view has one (owns
// is nil — every shard is locally readable), else an Adj over the cached
// blocks plus an owns predicate that hands the walk off at the first
// uncached shard, exactly as a worker hands off at the first unowned one.
func (v *View) steppingAdj() (graph.Adj, func(graph.NodeID) bool) {
	if a := v.adj.Load(); a != nil {
		return *a, nil
	}
	owns := func(nd graph.NodeID) bool {
		return v.blocks[uint32(nd)>>v.shift].ptr.Load() != nil
	}
	return graph.ResolveAdj(cachedView{v}), owns
}

func (v *View) inNeighbors(ctx context.Context, nd graph.NodeID) ([]graph.NodeID, error) {
	b, err := v.block(ctx, int(uint32(nd)>>v.shift))
	if err != nil {
		return nil, err
	}
	l := uint32(nd) & (uint32(1)<<v.shift - 1)
	return b.InDst[b.InOff[l]:b.InOff[l+1]], nil
}

func (v *View) outNeighbors(ctx context.Context, nd graph.NodeID) ([]graph.NodeID, error) {
	b, err := v.block(ctx, int(uint32(nd)>>v.shift))
	if err != nil {
		return nil, err
	}
	l := uint32(nd) & (uint32(1)<<v.shift - 1)
	return b.OutDst[b.OutOff[l]:b.OutOff[l+1]], nil
}

// InNeighbors implements graph.View for shape readers outside the query
// path (stats, component scans run them through a bound view instead).
// Fetch failures surface as an empty list here — and as a counted
// fetch error on /metrics; queries MUST go through BindQuery, which turns
// the same failure into a query error.
func (v *View) InNeighbors(nd graph.NodeID) []graph.NodeID {
	ls, _ := v.inNeighbors(context.Background(), nd)
	return ls
}

// OutNeighbors implements graph.View; see InNeighbors.
func (v *View) OutNeighbors(nd graph.NodeID) []graph.NodeID {
	ls, _ := v.outNeighbors(context.Background(), nd)
	return ls
}

// InDegree implements graph.View.
func (v *View) InDegree(nd graph.NodeID) int { return len(v.InNeighbors(nd)) }

// OutDegree implements graph.View.
func (v *View) OutDegree(nd graph.NodeID) int { return len(v.OutNeighbors(nd)) }

// BindQuery implements core.QueryBinder: the per-query view carrying the
// query's context (lazy fetches and walk segments run under its
// deadline) and meter (a transport failure trips every kernel worker).
func (v *View) BindQuery(ctx context.Context, m *budget.Meter) (graph.View, func() error) {
	b := &BoundView{view: v, ctx: ctx, m: m}
	return b, b.finish
}

// BoundView is one query's handle on a View. It is what the kernels
// actually traverse in a distributed topology: same adjacency, plus the
// query's context on every fetch, the walk-segment delegation that keeps
// the RNG stream identical across topologies, and the error latch that
// turns a mid-query worker death into a prompt partial-result-with-error
// return instead of a hang.
type BoundView struct {
	view *View
	ctx  context.Context
	m    *budget.Meter

	mu  sync.Mutex
	err error
}

var _ graph.VersionedView = (*BoundView)(nil)

// fail latches the first engine failure and trips the query's meter so
// every worker drains at its next checkpoint.
func (b *BoundView) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.m.Fail(err)
}

// finish reports the first engine failure the query absorbed.
func (b *BoundView) finish() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// NumNodes implements graph.View.
func (b *BoundView) NumNodes() int { return b.view.nodes }

// NumEdges implements graph.View.
func (b *BoundView) NumEdges() int64 { return b.view.edges }

// Version implements graph.VersionedView.
func (b *BoundView) Version() uint64 { return b.view.version }

// InNeighbors implements graph.View under the query's context.
func (b *BoundView) InNeighbors(nd graph.NodeID) []graph.NodeID {
	ls, err := b.view.inNeighbors(b.ctx, nd)
	if err != nil {
		b.fail(err)
	}
	return ls
}

// OutNeighbors implements graph.View under the query's context.
func (b *BoundView) OutNeighbors(nd graph.NodeID) []graph.NodeID {
	ls, err := b.view.outNeighbors(b.ctx, nd)
	if err != nil {
		b.fail(err)
	}
	return ls
}

// InDegree implements graph.View.
func (b *BoundView) InDegree(nd graph.NodeID) int { return len(b.InNeighbors(nd)) }

// OutDegree implements graph.View.
func (b *BoundView) OutDegree(nd graph.NodeID) int { return len(b.OutNeighbors(nd)) }

var (
	_ walk.SegmentedView = (*BoundView)(nil)
	_ graph.AdjProvider  = (*BoundView)(nil)
)

// ProvideAdj implements graph.AdjProvider: when a probe kernel resolves
// a devirtualized adjacency over the bound view, the view materializes
// every shard block in bulk (one batched ResolveShards per owner group)
// and serves the same dense-span sharded Adj the in-process store does.
// On failure the error latches on the query — the same partial-result
// semantics as any block fetch failure — and the returned Adj falls back
// to per-call interface dispatch over the bound view.
func (b *BoundView) ProvideAdj() graph.Adj {
	a, err := b.view.materialize(b.ctx)
	if err != nil {
		b.fail(err)
		return graph.ViewAdj(b)
	}
	return *a
}

// WalkSegmentBatch implements walk.SegmentedView: one exchange advances
// every live walk. Walks whose current shard block is cached step
// router-side with no RPC — bit-identical, because the same step loop
// draws from the same per-walk SplitMix64 stream, and a walk handed off
// at the first uncached shard resumes exactly where a worker would have.
// The rest are delegated to the group owning their current node (any
// replica: the stream state travels in the request, so every replica
// draws the same steps), with the remaining budget propagated in the
// request header — ONE WalkBatch round trip per group, concurrently
// across groups. Blocks are never faulted in here: the probe phase
// materializes them in bulk (ProvideAdj), after which every later
// exchange is RPC-free. A group-wide failure ends the group's walks and
// latches the error.
func (b *BoundView) WalkSegmentBatch(walks []walk.BatchWalk, maxNodes int, sqrtC float64) error {
	v := b.view
	adj, owns := v.steppingAdj()
	cp := budget.NewCheckpoint(b.m, walkSegmentPollInterval)
	var rng xrand.RNG
	pending := make([][]int, len(v.r.groups))
	local := int64(0)
	for i := range walks {
		w := &walks[i]
		if w.Done {
			continue
		}
		cur := w.Buf[len(w.Buf)-1]
		if v.blocks[uint32(cur)>>v.shift].ptr.Load() != nil {
			rng.SetState(w.State)
			out, ended := walk.Segment(&adj, cur, maxNodes-len(w.Buf), sqrtC, &rng, owns, cp.Stop, w.Buf)
			w.Buf = out
			w.State = rng.State()
			local++
			if ended {
				w.Done = true
				continue
			}
			cur = w.Buf[len(w.Buf)-1]
		}
		gi := v.ownerOf[uint32(cur)>>v.shift]
		pending[gi] = append(pending[gi], i)
	}
	if local > 0 {
		v.r.walkLocalSegs.Add(local)
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for gi := range pending {
		idxs := pending[gi]
		if len(idxs) == 0 {
			continue
		}
		v.r.walkBatches.Add(1)
		v.r.walkDelegated.Add(int64(len(idxs)))
		wg.Add(1)
		go func(gi int, idxs []int) {
			defer wg.Done()
			starts := make([]WalkStart, len(idxs))
			for j, wi := range idxs {
				w := &walks[wi]
				starts[j] = WalkStart{Cur: w.Buf[len(w.Buf)-1], State: w.State, Room: maxNodes - len(w.Buf)}
			}
			g := v.r.groups[gi]
			res, err := groupRead(v.r, b.ctx, g, "rpc.walkbatch", func(ctx context.Context, e ShardEngine) ([]WalkResult, error) {
				return e.WalkBatch(ctx, v.version, b.m.Export(), sqrtC, starts)
			})
			if err == nil && len(res) != len(idxs) {
				err = fmt.Errorf("router: group %d returned %d walk results for %d walks", gi, len(res), len(idxs))
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				for _, wi := range idxs {
					walks[wi].Done = true
				}
				return
			}
			handoffs := int64(0)
			for j, wi := range idxs {
				w := &walks[wi]
				r := res[j]
				w.Buf = append(w.Buf, r.Nodes...)
				w.State = r.State
				if r.Status == SegmentHandoff {
					handoffs++
				} else {
					w.Done = true
				}
			}
			if handoffs > 0 {
				v.r.walkHandoffs.Add(handoffs)
			}
		}(gi, idxs)
	}
	wg.Wait()
	if firstErr != nil {
		b.fail(firstErr)
		return firstErr
	}
	return nil
}
