package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/graph"
	"probesim/internal/shard"
)

// Router serves every query over one replica set of shard engines and
// assembles their shards into one composite versioned view. It
// implements the same SnapshotProvider seam core.Executor already runs
// on, so the entire query stack — single-source, top-k, progressive,
// joins, components — works over a fleet of workers exactly as it does
// over an in-process store.
//
// Every member holds the whole graph and takes every write, so any
// member can serve any shard block: a cold view splits the blocks it
// lacks across the current members, and each read fails over (and
// optionally hedges) to the others; writes broadcast to every member
// that is still in-order ("current"), and a member that misses batches
// is demoted and replayed back in from the router's replay ring. Every
// member serves the same immutable blocks of a pinned generation, so
// which member answers a given call never changes the bits of the
// result.
//
// Fast path: a Router over a single LocalEngine (NewLocal) serves the
// store's own published StoreSnapshot (no wrapper, no new allocation,
// bit-identical and benchmark-identical to the direct store) and hands
// each write batch straight to that engine: with no replica there is
// nothing to retry, demote, replay or level. Any other topology serves
// a *View, whose first query fetches the shard blocks it lacks from the
// members and assembles them into a StoreSnapshot that every query on
// the generation runs on.
type Router struct {
	members []*member
	fast    *LocalEngine // non-nil: a single in-process engine

	// lat keeps recent shard-read latencies; the hedge delay derives
	// from their p99.
	lat latencyTracker

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
	shardFetches   atomic.Int64
	shardCarried   atomic.Int64
	fetchErrs      fetchErrCounters
	shardBatches   atomic.Int64
	applyRetries   atomic.Int64
	failovers      atomic.Int64
	hedgesSent     atomic.Int64
	hedgesWon      atomic.Int64
	applySkips     atomic.Int64
	catchupBatches atomic.Int64
}

// controlTimeout bounds control-plane broadcasts (Meta, Publish, Apply)
// that carry no caller deadline.
const controlTimeout = 10 * time.Second

// New assembles a router over one replica set: every engine holds the
// whole graph, and any current one serves any shard block. It fetches
// every member's Meta, picks the most-advanced responder as the
// reference, demotes lagging members (they rejoin through the catch-up
// path), and builds the initial view. At least one member must answer.
// A single *LocalEngine is the in-process fast path.
func New(engines ...ShardEngine) (*Router, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("router: no engines")
	}
	r := &Router{ring: newBatchRing(defaultReplayHorizon)}
	for _, e := range engines {
		r.members = append(r.members, &member{eng: e})
	}
	if le, ok := engines[0].(*LocalEngine); ok && len(engines) == 1 {
		r.fast = le
		r.members[0].current.Store(true)
		return r, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	metas := r.collect(false, func(e ShardEngine) (Meta, error) { return e.Meta(ctx) })
	view, err := r.assembleLocked(metas) // not shared yet; no lock needed
	if err != nil {
		return nil, err
	}
	for _, mm := range metas {
		if mm.err == nil && mm.m.LastBatch > r.nextBatch.Load() {
			r.nextBatch.Store(mm.m.LastBatch)
		}
	}
	r.cur.Store(view)
	return r, nil
}

// NewReplicated is New over every group's engines in order: the
// replica groups of the earlier owned-stride layout, flattened into one
// replica set.
func NewReplicated(groups [][]ShardEngine) (*Router, error) {
	return New(slices.Concat(groups...)...)
}

// NewLocal is the single-process configuration: a router whose only
// engine is the store itself. It serves the store's own snapshots with
// zero added indirection.
func NewLocal(st *shard.Store) *Router {
	r, err := New(NewLocalEngine(st))
	if err != nil {
		panic(err) // unreachable: a single local engine cannot fail Meta
	}
	return r
}

// SetHedge installs the read-hedging policy. Safe to call while serving.
func (r *Router) SetHedge(hp HedgePolicy) {
	r.hedge.Store(&hp)
}

// memberMeta is one member's answer to a control-plane broadcast.
type memberMeta struct {
	m   Meta
	err error
}

// errSkippedMember marks a member a broadcast never called because it
// was already demoted.
var errSkippedMember = errors.New("router: member not current; skipped")

// collect runs one engine call on every member concurrently and returns
// the results in member order. With currentOnly, demoted members are
// not called: they get errSkippedMember, so assembly leaves their state
// alone.
func (r *Router) collect(currentOnly bool, call func(ShardEngine) (Meta, error)) []memberMeta {
	out := make([]memberMeta, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		if currentOnly && !m.current.Load() {
			out[i].err = errSkippedMember
			continue
		}
		wg.Add(1)
		go func(slot *memberMeta, e ShardEngine) {
			defer wg.Done()
			slot.m, slot.err = call(e)
		}(&out[i], m.eng)
	}
	wg.Wait()
	return out
}

// assembleLocked validates the metas against each other, updates member
// current/lag state, and builds a View. Caller holds mu (or has r to
// itself, as in New).
//
// The most-advanced responder (highest watermark, then highest version)
// is the reference; members behind it are demoted for catch-up rather
// than failing the fleet — that is the whole point of replication. A
// member at the reference's watermark with a different shape has
// diverged, and the fleet is refused: nothing says which copy is right.
// The view takes its shard versions from the reference.
func (r *Router) assembleLocked(metas []memberMeta) (*View, error) {
	best := -1
	for i, mm := range metas {
		if mm.err != nil {
			continue
		}
		if best == -1 || mm.m.LastBatch > metas[best].m.LastBatch ||
			(mm.m.LastBatch == metas[best].m.LastBatch && mm.m.Version > metas[best].m.Version) {
			best = i
		}
	}
	if best == -1 {
		ferr := fmt.Errorf("%w: every worker demoted; awaiting catch-up", ErrTransport)
		for _, mm := range metas {
			if mm.err != nil && !errors.Is(mm.err, errSkippedMember) {
				ferr = mm.err
				break
			}
		}
		return nil, fmt.Errorf("router: no worker answered: %w", ferr)
	}
	cm := metas[best].m
	for i, m := range r.members {
		mm := metas[i]
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
			m.setLag(fmt.Sprintf("at watermark %d behind fleet watermark %d; awaiting catch-up replay", mm.m.LastBatch, cm.LastBatch))
			continue
		}
		if mm.m.Nodes != cm.Nodes || mm.m.Edges != cm.Edges ||
			mm.m.Shift != cm.Shift || mm.m.Shards != cm.Shards {
			return nil, fmt.Errorf("router: workers %d and %d disagree at watermark %d: (n=%d m=%d shift=%d shards=%d) vs (n=%d m=%d shift=%d shards=%d) — replica state diverged; restore one from the other",
				best, i, cm.LastBatch,
				cm.Nodes, cm.Edges, cm.Shift, cm.Shards,
				mm.m.Nodes, mm.m.Edges, mm.m.Shift, mm.m.Shards)
		}
		if mm.m.Version != cm.Version {
			// Same watermark and shape: the member only missed a
			// republish; catch-up levels it at the next pass.
			m.setLag(fmt.Sprintf("published version %d behind fleet version %d; awaiting republish", mm.m.Version, cm.Version))
			continue
		}
		m.acked.Store(mm.m.LastBatch)
		m.current.Store(true)
		m.clearLag()
	}
	if cm.Shift > 31 || cm.Shards != (cm.Nodes+1<<cm.Shift-1)>>cm.Shift {
		return nil, fmt.Errorf("router: fleet reports %d shards of stride 1<<%d for %d nodes", cm.Shards, cm.Shift, cm.Nodes)
	}
	view := &View{
		r:         r,
		nodes:     cm.Nodes,
		edges:     cm.Edges,
		version:   cm.Version,
		lastBatch: cm.LastBatch,
		shift:     cm.Shift,
		blocks:    make([]blockSlot, cm.Shards),
	}
	if len(cm.ShardVersions) == cm.Shards { // else: its blocks are never carried
		for p, ver := range cm.ShardVersions {
			view.blocks[p].version = ver
			view.blocks[p].versioned = true
		}
	}
	return view, nil
}

// PublishedView implements core.SnapshotProvider. It never blocks.
func (r *Router) PublishedView() graph.VersionedView {
	if r.fast != nil {
		return r.fast.st.Current()
	}
	return r.cur.Load()
}

// PublishView implements core.SnapshotProvider: it asks every current
// member to republish, validates agreement, and installs a fresh
// composite view that inherits every block whose shard version did not
// move (see View.inherit). An unchanged version keeps the current view
// (and its warm block cache). On failure the previously published view
// stays current and is returned alongside the error.
func (r *Router) PublishView(ctx context.Context) (graph.VersionedView, error) {
	if r.fast != nil {
		// The store itself, not LocalEngine.Publish: the engine pins the
		// last genRetain generations for remote readers, and an
		// in-process server must not keep them alive.
		return r.fast.st.PublishCtx(ctx)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(ctx)
}

func (r *Router) publishLocked(ctx context.Context) (graph.VersionedView, error) {
	prev := r.cur.Load()
	metas := r.collect(true, func(e ShardEngine) (Meta, error) { return e.Publish(ctx) })
	view, err := r.assembleLocked(metas)
	if err != nil {
		return prev, fmt.Errorf("router: publication failed: %w", err)
	}
	if prev != nil && view.version == prev.version {
		return prev, nil // keep the warm block cache
	}
	r.shardCarried.Add(int64(view.inherit(prev)))
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
// current member (each engine is all-or-rollback on its own, and decides
// each id at most once).
//
// The batch id is what closes the lost-reply window: a worker that
// decided the batch but whose reply was lost reports the same decision
// to the retry without re-applying, and a worker that never saw it
// decides it now — so on ErrTransport the router RETRIES the same id.
// A member that exhausts its retries is demoted and replayed back in
// from the replay ring, so the write succeeds once at least one current
// member applies it: with one member down, an acknowledged batch is
// durable on the surviving members' logs alone until the demoted one
// catches up. Only a batch NO member took fails the write, with an error
// that says the batch may still apply and a re-submit is not safe blind.
//
// A SEMANTIC failure (bad op) is the batch's decision: every worker
// holds the whole graph and has taken the same batches, so every member
// rejects it and rolls it back on its own, and the router returns the
// rejection and sends nothing more. A demoted member replays the batch
// from the ring later and rejects it too. A member that applied a batch
// another member rejected has diverged and is marked so.
//
// On the fast path none of that machinery applies: the batch goes to
// the one engine under id 0, so its log (when armed) assigns the id,
// and the engine's all-or-rollback apply is the whole story. An
// ErrUnavailable from it means the log append was annulled and nothing
// was applied.
func (r *Router) Apply(ctx context.Context, ops []graph.EdgeOp) error {
	if len(ops) == 0 {
		return nil
	}
	if r.fast != nil {
		_, err := r.fast.Apply(ctx, 0, ops)
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.catchUpLocked(ctx)
	batch := r.nextBatch.Add(1)
	r.ring.put(batch, ops)
	res := r.applyBroadcastLocked(ctx, batch, ops)

	var semanticErr, firstFail error
	decided := false
	var versions []uint64
	for i, m := range r.members {
		rr := res[i]
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
				firstFail = fmt.Errorf("router: worker %d: apply retries exhausted; the worker either holds batch %d durably (a re-send of the id is a no-op) or will be replayed from the ring when it returns: %w", i, batch, rr.err)
			}
		case errors.Is(rr.err, ErrUnavailable):
			// The engine refused retry-safely (annulled WAL append): it
			// provably does NOT hold the batch, so it is demoted like a
			// transport loss and replayed later.
			m.setLag(fmt.Sprintf("could not log batch %d (%v); awaiting catch-up replay", batch, rr.err))
			if firstFail == nil {
				firstFail = fmt.Errorf("router: worker %d: apply retries exhausted; the worker could not log batch %d (it does not hold it; the ring replays it when it recovers): %w", i, batch, rr.err)
			}
		default:
			decided = true
			m.acked.Store(batch)
			if semanticErr == nil {
				semanticErr = fmt.Errorf("router: worker %d: %w", i, rr.err)
			}
		}
	}
	if semanticErr != nil {
		for i, m := range r.members {
			if rr := res[i]; rr.attempted && rr.err == nil {
				m.markDivergent(fmt.Sprintf("applied batch %d, which another member rejected (%v); restore from a fleet peer", batch, semanticErr))
			}
		}
		return semanticErr
	}
	if !decided {
		// NO rollback: the batch is identified and stays in the ring. A
		// member whose reply was lost holds it durably (its log replays it
		// on reboot, and a later re-send of the id is a no-op), and every
		// demoted member is replayed the batch when it returns.
		if firstFail == nil {
			firstFail = fmt.Errorf("%w: every worker demoted; awaiting catch-up", ErrTransport)
		}
		return fmt.Errorf("router: no worker took batch %d: %w", batch, firstFail)
	}
	for i, v := range versions[1:] {
		if v != versions[0] {
			return fmt.Errorf("router: appliers at versions %d and %d after batch %d (applier %d of the ack set)", versions[0], v, batch, i+1)
		}
	}
	return nil
}

// applyBroadcastLocked sends one identified batch to every current
// member concurrently, retrying transport failures per member. Demoted
// members are skipped (counted) — they get the batch later, in order,
// from the replay ring.
func (r *Router) applyBroadcastLocked(ctx context.Context, batch uint64, ops []graph.EdgeOp) []applyResult {
	out := make([]applyResult, len(r.members))
	var wg sync.WaitGroup
	for i, m := range r.members {
		if !m.current.Load() {
			r.applySkips.Add(1)
			continue
		}
		out[i].attempted = true
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
		}(&out[i], m.eng)
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
	for _, m := range r.members {
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
				// live members rejected this batch too.
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
	return readmitted
}

// CheckHealth probes every member (Ping also refreshes RemoteEngine
// health state), demotes current members that fail the probe, runs the
// catch-up pass, and validates agreement. It returns nil while at least
// one member is current and every current member is at one version —
// the fleet is healthy even with individual members down.
func (r *Router) CheckHealth(ctx context.Context) error {
	if r.fast != nil {
		return nil
	}
	pings := r.collect(false, func(e ShardEngine) (Meta, error) {
		v, last, err := e.Ping(ctx)
		return Meta{Version: v, LastBatch: last}, err
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, m := range r.members {
		if err := pings[i].err; err != nil && m.current.Load() {
			m.setLag(fmt.Sprintf("health probe failed: %v", err))
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
	if firstErr == nil && !slices.ContainsFunc(r.members, func(m *member) bool { return m.current.Load() }) {
		firstErr = fmt.Errorf("router: no serving worker")
	}
	if readmitted == 0 && firstErr == nil {
		// Version agreement among current members from this probe round.
		// Skipped when members were just re-admitted: those pings predate
		// the republish and would alarm falsely; the next tick verifies.
		var v0 uint64
		seen := false
		for i, m := range r.members {
			if !m.current.Load() || pings[i].err != nil {
				continue
			}
			v := pings[i].m.Version
			if !seen {
				v0, seen = v, true
			} else if v != v0 {
				firstErr = fmt.Errorf("router: serving replicas at versions %d and %d", v0, v)
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
	for _, m := range r.members {
		if err := m.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WorkerStat is one member's serving-stats row. Replica is the
// member's position in the replica set (its place in -workers).
type WorkerStat struct {
	Addr       string `json:"addr"`
	Replica    int    `json:"replica"`
	Healthy    bool   `json:"healthy"`
	Current    bool   `json:"current"`
	Acked      uint64 `json:"acked"`
	Version    uint64 `json:"version"`
	Calls      int64  `json:"calls"`
	Errors     int64  `json:"errors"`
	Reconnects int64  `json:"reconnects"`
	LastError  string `json:"lastError,omitempty"`
	LagError   string `json:"lagError,omitempty"`
}

// WorkerStats reports one row per member for /stats and /metrics.
func (r *Router) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, len(r.members))
	for i, m := range r.members {
		st := WorkerStat{
			Addr: "local", Healthy: true, Replica: i,
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
		out[i] = st
	}
	return out
}

// FetchErrors splits failed shard-block fetches by cause.
type FetchErrors struct {
	Transport int64 // every member tried was unreachable (ErrTransport)
	Retired   int64 // the pinned generation was retired (ErrRetiredGeneration)
	Deadline  int64 // the caller's deadline or cancellation cut the fetch short
	Other     int64 // anything else, such as a worker rejecting the request
}

// Total is the number of failed fetches.
func (f FetchErrors) Total() int64 { return f.Transport + f.Retired + f.Deadline + f.Other }

// fetchErrCounters counts failed fetches by cause.
type fetchErrCounters struct{ transport, retired, deadline, other atomic.Int64 }

// count files one failed fetch under its cause.
func (f *fetchErrCounters) count(err error) {
	switch {
	case errors.Is(err, ErrRetiredGeneration):
		f.retired.Add(1)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		f.deadline.Add(1)
	case errors.Is(err, ErrTransport):
		f.transport.Add(1)
	default:
		f.other.Add(1)
	}
}

func (f *fetchErrCounters) load() FetchErrors {
	return FetchErrors{
		Transport: f.transport.Load(),
		Retired:   f.retired.Load(),
		Deadline:  f.deadline.Load(),
		Other:     f.other.Load(),
	}
}

// Counters are the router's aggregate read- and write-path counters.
type Counters struct {
	ShardFetches     int64
	ShardFetchErrors FetchErrors
	// ShardBlocksCarried counts shard blocks a new view generation
	// inherited from its predecessor instead of fetching: next to
	// ShardFetches it shows what a write cost the next read.
	ShardBlocksCarried int64
	// ShardBatches counts batched ResolveShards round trips (composite-
	// view materialization): ShardFetches/ShardBatches is the average
	// blocks-per-RPC amortization the batch plane buys.
	ShardBatches int64
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
		ShardFetches:       r.shardFetches.Load(),
		ShardFetchErrors:   r.fetchErrs.load(),
		ShardBlocksCarried: r.shardCarried.Load(),
		ShardBatches:       r.shardBatches.Load(),
		ApplyRetries:       r.applyRetries.Load(),
		Failovers:          r.failovers.Load(),
		HedgesSent:         r.hedgesSent.Load(),
		HedgesWon:          r.hedgesWon.Load(),
		ApplySkips:         r.applySkips.Load(),
		CatchupBatches:     r.catchupBatches.Load(),
	}
}

// Distributed reports whether the router serves through the generic
// (multi-engine or remote) path rather than the single-store fast path.
func (r *Router) Distributed() bool { return r.fast == nil }

// Local returns the fast-path engine, or nil in a distributed topology.
// The serving stack arms its write-ahead log (LocalEngine.SetWAL) and
// reads the store's publication and GC stats through it.
func (r *Router) Local() *LocalEngine { return r.fast }

// View is the composite read side the generic path serves: the shape and
// version the current members agree on, plus per-shard adjacency blocks —
// carried over from the previous generation where the shard did not
// change, else fetched from the members on first use — assembled into
// one shard.StoreSnapshot that every query on the generation runs on.
// It implements core.QueryBinder for queries and graph.VersionedView for
// shape readers (stats, the join's source scan).
type View struct {
	r         *Router
	nodes     int
	edges     int64
	version   uint64
	lastBatch uint64
	shift     uint32
	blocks    []blockSlot

	// snap is the generation's adjacency: a snapshot over every shard
	// block, assembled at most once (materialize) and shared by every
	// query on the generation. snapMu single-flights the fetch.
	snapMu sync.Mutex
	snap   atomic.Pointer[shard.StoreSnapshot]
}

type blockSlot struct {
	ptr atomic.Pointer[graph.CSRShard]
	// version is the shard version the reference member reported at
	// assembly; versioned is false when it reported none.
	// Both are fixed before the view is published.
	version   uint64
	versioned bool
}

var _ graph.VersionedView = (*View)(nil)

// NumNodes implements graph.View.
func (v *View) NumNodes() int { return v.nodes }

// NumEdges implements graph.View.
func (v *View) NumEdges() int64 { return v.edges }

// Version implements graph.VersionedView.
func (v *View) Version() uint64 { return v.version }

// inherit fills v's slots from prev, the view it replaces, with every
// block prev holds whose shard both generations report at the same
// version, and returns how many it carried. A shard's version only
// rises, and replicas in lockstep agree on it, so an unchanged version
// names an unchanged block — the same trust the router already places
// in an unchanged view version when it keeps a warm view. Nothing is
// carried across a change of stride or shard count. v must not be
// published yet.
func (v *View) inherit(prev *View) int {
	if prev == nil || prev.shift != v.shift || len(prev.blocks) != len(v.blocks) {
		return 0
	}
	carried := 0
	for p := range v.blocks {
		slot, old := &v.blocks[p], &prev.blocks[p]
		if !slot.versioned || !old.versioned || slot.version != old.version {
			continue
		}
		if b := old.ptr.Load(); b != nil {
			slot.ptr.Store(b)
			carried++
		}
	}
	return carried
}

// BindQuery implements core.QueryBinder: the generation's snapshot, once
// every block the view lacks is fetched under the query's context (one
// batched ResolveShards per serving member, none on a warm view). The
// kernels then walk and probe it with the same code as an in-process
// store's snapshot. A failed fetch is the query's error.
func (v *View) BindQuery(ctx context.Context) (graph.View, error) {
	s, err := v.materialize(ctx)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// materialize fetches every block the view neither carried nor fetched
// before and assembles the generation's snapshot over all of them. The
// missing blocks split into one chunk per current, healthy member —
// block p into chunk p mod k — and each chunk is ONE batched
// ResolveShards call that starts at its own member and fails over (or
// hedges) to the others; the chunks run concurrently. Blocks at one
// version are the same on every member, so the split never moves a
// bit. Blocks a failed attempt did fetch stay in their slots, so the
// next attempt asks only for the rest.
func (v *View) materialize(ctx context.Context) (*shard.StoreSnapshot, error) {
	if s := v.snap.Load(); s != nil {
		return s, nil
	}
	v.snapMu.Lock()
	defer v.snapMu.Unlock()
	if s := v.snap.Load(); s != nil {
		return s, nil
	}
	starts := v.r.serving()
	if len(starts) == 0 {
		starts = []int{0} // no serving member: one chunk, every member in order
	}
	chunks := make([][]int, len(starts))
	for p := range v.blocks {
		if v.blocks[p].ptr.Load() == nil {
			chunks[p%len(chunks)] = append(chunks[p%len(chunks)], p)
		}
	}
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for j, ps := range chunks {
		if len(ps) == 0 {
			continue
		}
		v.r.shardBatches.Add(1)
		v.r.shardFetches.Add(int64(len(ps)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = v.fetch(ctx, starts[j], ps)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	csrs := make([]graph.CSRShard, len(v.blocks))
	versions := make([]uint64, len(v.blocks))
	for p := range v.blocks {
		csrs[p] = *v.blocks[p].ptr.Load()
		versions[p] = v.blocks[p].version
	}
	s := shard.Assemble(v.nodes, v.edges, v.version, v.lastBatch, v.shift, csrs, versions)
	v.snap.Store(s)
	return s, nil
}

// fetch pulls shards ps from the members, starting at member first
// (with failover and hedging across the rest), and fills their slots,
// checking every block's shape first: a worker's malformed block fails
// the fetch instead of panicking a kernel. A failure is counted under
// its cause.
func (v *View) fetch(ctx context.Context, first int, ps []int) error {
	csrs, err := failoverRead(v.r, ctx, first, "rpc.shards", func(ctx context.Context, e ShardEngine) ([]graph.CSRShard, error) {
		return e.ResolveShards(ctx, v.version, ps)
	})
	if err == nil && len(csrs) != len(ps) {
		err = fmt.Errorf("router: a worker returned %d shard blocks for %d requested", len(csrs), len(ps))
	}
	for i := 0; err == nil && i < len(ps); i++ {
		if cerr := shard.CheckBlock(csrs[i], ps[i], v.shift, v.nodes); cerr != nil {
			err = fmt.Errorf("router: a worker sent a malformed block: %w", cerr)
		}
	}
	if err != nil {
		v.r.fetchErrs.count(err)
		return err
	}
	for i, p := range ps {
		// Each block its own heap value: a pointer into csrs would keep
		// every block of the reply alive while any one of them is carried.
		csr := csrs[i]
		v.blocks[p].ptr.Store(&csr)
	}
	return nil
}

// shape is the adjacency shape readers outside a query see: the
// generation's snapshot, fetched under no deadline, or — when the fetch
// fails — an edgeless graph of the view's nodes, the failure counted on
// /metrics. Queries bind through BindQuery instead, which turns the same
// failure into their error.
func (v *View) shape() graph.View {
	if s, err := v.materialize(context.Background()); err == nil {
		return s
	}
	return graph.EmptyView(v.nodes)
}

// ProvideAdj implements graph.AdjProvider, so a shape reader that scans
// every node (graph.ComputeViewStats) resolves the snapshot, and makes
// its one fetch attempt, once per scan instead of once per node.
func (v *View) ProvideAdj() graph.Adj { return graph.ResolveAdj(v.shape()) }

// InNeighbors implements graph.View for shape readers; see shape.
func (v *View) InNeighbors(nd graph.NodeID) []graph.NodeID { return v.shape().InNeighbors(nd) }

// OutNeighbors implements graph.View for shape readers; see shape.
func (v *View) OutNeighbors(nd graph.NodeID) []graph.NodeID { return v.shape().OutNeighbors(nd) }

// InDegree implements graph.View for shape readers; see shape.
func (v *View) InDegree(nd graph.NodeID) int { return v.shape().InDegree(nd) }

// OutDegree implements graph.View for shape readers; see shape.
func (v *View) OutDegree(nd graph.NodeID) int { return v.shape().OutDegree(nd) }
