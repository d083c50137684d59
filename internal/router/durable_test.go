package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"probesim/internal/graph"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

// TestApplyIdempotentOverTCP is the routed half of the durability
// acceptance property: the same identified batch delivered twice to a
// real TCP worker (the lost-reply retry) must be applied exactly once.
func TestApplyIdempotentOverTCP(t *testing.T) {
	g := testGraph(200, 17)
	re, _, le := startWorker(t, g, 8)
	before := le.Store().NumEdges()

	ops := []graph.EdgeOp{{U: 1, V: 2}, {U: 3, V: 4}}
	v1, err := re.Apply(context.Background(), 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := le.Store().NumEdges(); got != before+2 {
		t.Fatalf("edges %d after first apply, want %d", got, before+2)
	}
	// The retry: same batch id, same ops, over the same wire.
	v2, err := re.Apply(context.Background(), 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := le.Store().NumEdges(); got != before+2 {
		t.Fatalf("edges %d after retried apply, want %d (batch applied twice)", got, before+2)
	}
	if v1 != v2 {
		t.Fatalf("versions %d then %d; a no-op retry must report the same version", v1, v2)
	}
	// A NEW id applies again.
	if _, err := re.Apply(context.Background(), 2, ops); err != nil {
		t.Fatal(err)
	}
	if got := le.Store().NumEdges(); got != before+4 {
		t.Fatalf("edges %d after new batch, want %d", got, before+4)
	}
	if err := le.Store().Validate(); err != nil {
		t.Fatal(err)
	}
}

// lostReplyEngine wraps a ShardEngine and simulates the lost-reply
// failure: the first dropReplies Apply calls run to completion on the
// inner engine (the worker DID the work) but the caller sees a
// transport error, exactly like a connection dying between apply and
// reply.
type lostReplyEngine struct {
	ShardEngine
	dropReplies atomic.Int32
	applies     atomic.Int32
}

func (e *lostReplyEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	v, err := e.ShardEngine.Apply(ctx, batch, ops)
	e.applies.Add(1)
	if err == nil && e.dropReplies.Add(-1) >= 0 {
		return 0, fmt.Errorf("%w: injected reply loss", ErrTransport)
	}
	return v, err
}

// TestRouterApplyRetriesLostReply: a transport failure AFTER the worker
// applied no longer rolls the fleet back or strands it — the router
// retries the same batch id, the worker acknowledges the no-op, and both
// engines converge with the batch applied exactly once.
func TestRouterApplyRetriesLostReply(t *testing.T) {
	g := testGraph(120, 23)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	flaky := &lostReplyEngine{ShardEngine: NewLocalEngine(stA)}
	flaky.dropReplies.Store(1)
	rt, err := New(flaky, NewLocalEngine(stB))
	if err != nil {
		t.Fatal(err)
	}
	before := stA.NumEdges()
	if err := rt.Apply(context.Background(), []graph.EdgeOp{{U: 5, V: 6}}); err != nil {
		t.Fatalf("apply with one lost reply failed: %v", err)
	}
	if got := stA.NumEdges(); got != before+1 {
		t.Fatalf("engine A edges %d, want %d (applied exactly once through the retry)", got, before+1)
	}
	if got := stB.NumEdges(); got != before+1 {
		t.Fatalf("engine B edges %d, want %d", got, before+1)
	}
	if flaky.applies.Load() != 2 {
		t.Fatalf("flaky engine saw %d applies, want 2 (original + retry)", flaky.applies.Load())
	}
	if rt.Counters().ApplyRetries != 1 {
		t.Fatalf("applyRetries %d, want 1", rt.Counters().ApplyRetries)
	}
	if stA.LastBatch() != stB.LastBatch() {
		t.Fatalf("watermarks diverged: %d vs %d", stA.LastBatch(), stB.LastBatch())
	}
	// The fleet still agrees (versions and watermarks) at the next
	// publication — no divergence detection fires.
	if _, err := rt.PublishView(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// deadEngine always fails with a transport error without applying.
type deadEngine struct {
	ShardEngine
	calls atomic.Int32
}

func (e *deadEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	e.calls.Add(1)
	return 0, fmt.Errorf("%w: injected dead worker", ErrTransport)
}

// TestRouterApplyExhaustsRetries: when no worker acknowledges a batch —
// one stays unreachable, the other applies it and loses every reply —
// Apply fails with ErrTransport after the retry budget, and the worker
// that applied the batch is NOT rolled back (its copy is durable and
// idempotent; the dead worker is replayed the batch from the ring when
// it returns).
func TestRouterApplyExhaustsRetries(t *testing.T) {
	g := testGraph(80, 29)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	dead := &deadEngine{ShardEngine: NewLocalEngine(stA)}
	lossy := &lostReplyEngine{ShardEngine: NewLocalEngine(stB)}
	lossy.dropReplies.Store(applyAttempts)
	rt, err := New(dead, lossy)
	if err != nil {
		t.Fatal(err)
	}
	before := stB.NumEdges()
	err = rt.Apply(context.Background(), []graph.EdgeOp{{U: 1, V: 3}})
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want ErrTransport after exhausted retries, got %v", err)
	}
	if dead.calls.Load() != applyAttempts {
		t.Fatalf("dead engine saw %d attempts, want %d", dead.calls.Load(), applyAttempts)
	}
	if got := lossy.applies.Load(); got != applyAttempts {
		t.Fatalf("reply-losing engine saw %d attempts, want %d", got, applyAttempts)
	}
	if got := stB.NumEdges(); got != before+1 {
		t.Fatalf("applying engine edges %d, want %d (applied once, no rollback on transport failure)", got, before+1)
	}
}

// assertSameLists requires every node's in- and out-list, in order, to
// be the same in both views.
func assertSameLists(t *testing.T, tag string, want, got graph.View) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d", tag, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < want.NumNodes(); v++ {
		if w, g := want.OutNeighbors(v), got.OutNeighbors(v); !slices.Equal(w, g) {
			t.Fatalf("%s: out(%d) = %v, want %v", tag, v, g, w)
		}
		if w, g := want.InNeighbors(v), got.InNeighbors(v); !slices.Equal(w, g) {
			t.Fatalf("%s: in(%d) = %v, want %v", tag, v, g, w)
		}
	}
}

// TestRouterApplySemanticRollback: a batch every member of a full-copy
// fleet rejects costs one batch id, leaves every list of every worker,
// in order, as an in-process store that never saw the batch holds it,
// and the fleet takes the next write and publishes it.
func TestRouterApplySemanticRollback(t *testing.T) {
	ctx := context.Background()
	g := testGraph(60, 31)
	ref := shard.NewStore(g, 4, 0)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	rt, err := New(NewLocalEngine(stA), NewLocalEngine(stB))
	if err != nil {
		t.Fatal(err)
	}
	// Removing out(10)'s first entry swaps its tail into the slot; the
	// self-loop then rejects the batch.
	if out := g.OutNeighbors(10); len(out) < 3 {
		t.Fatalf("out(10) = %v; the test needs a removal that is not at the tail", out)
	}
	ops := []graph.EdgeOp{{Remove: true, U: 10, V: g.OutNeighbors(10)[0]}, {U: 5, V: 5}}
	if err := rt.Apply(ctx, ops); err == nil {
		t.Fatal("batch with a self-loop applied")
	}
	if got := rt.nextBatch.Load(); got != 1 {
		t.Fatalf("the rejected batch used batch ids up to %d, want 1", got)
	}
	for i, st := range []*shard.Store{stA, stB} {
		if st.LastBatch() != 1 {
			t.Fatalf("worker %d at watermark %d, want 1", i, st.LastBatch())
		}
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
		assertSameLists(t, fmt.Sprintf("worker %d after the rejection", i), ref.Current(), st.Publish())
	}
	next := []graph.EdgeOp{{U: 1, V: 2}}
	if err := rt.Apply(ctx, next); err != nil {
		t.Fatalf("write after a rejected batch: %v", err)
	}
	applyToStore(t, ref, next)
	if _, err := rt.PublishView(ctx); err != nil {
		t.Fatalf("publication after a rejected batch: %v", err)
	}
	for i, st := range []*shard.Store{stA, stB} {
		assertSameLists(t, fmt.Sprintf("worker %d after the next write", i), ref.Publish(), st.Current())
	}
}

// countingEngine counts the Apply calls that reach an engine.
type countingEngine struct {
	ShardEngine
	applies atomic.Int32
}

func (e *countingEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	e.applies.Add(1)
	return e.ShardEngine.Apply(ctx, batch, ops)
}

// vetoEngine rejects its next Apply semantically without touching its
// store (but still decides the batch, as a real engine's store would).
type vetoEngine struct {
	*LocalEngine
	veto atomic.Int32
}

func (e *vetoEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	if e.veto.Add(-1) >= 0 {
		// Decide the batch like a real semantic rejection does (rollback
		// inside ApplyBatch advances the watermark), then refuse.
		if _, err := e.LocalEngine.Apply(ctx, batch, nil); err != nil {
			return 0, err
		}
		return e.Store().Version(), fmt.Errorf("router: injected semantic rejection of batch %d", batch)
	}
	return e.LocalEngine.Apply(ctx, batch, ops)
}

// TestMixedSemanticRollbackConvergesWatermarks: when one member rejects
// a batch that another applied, the router returns the rejection under
// the batch's one id, sends no member anything more, and marks the
// member that applied divergent, saying why in its lag error. Both
// watermarks stand at the batch's id.
func TestMixedSemanticRollbackConvergesWatermarks(t *testing.T) {
	g := testGraph(80, 43)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	veto := &vetoEngine{LocalEngine: NewLocalEngine(stA)}
	veto.veto.Store(1)
	a := &countingEngine{ShardEngine: veto}
	b := &countingEngine{ShardEngine: NewLocalEngine(stB)}
	rt, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Apply(context.Background(), []graph.EdgeOp{{U: 2, V: 5}}); err == nil {
		t.Fatal("vetoed batch reported success")
	}
	if got := rt.nextBatch.Load(); got != 1 {
		t.Fatalf("the rejected batch used batch ids up to %d, want 1", got)
	}
	if a.applies.Load() != 1 || b.applies.Load() != 1 {
		t.Fatalf("members saw %d and %d applies, want 1 each (nothing after the broadcast)", a.applies.Load(), b.applies.Load())
	}
	if stA.LastBatch() != 1 || stB.LastBatch() != 1 {
		t.Fatalf("watermarks %d and %d, want 1", stA.LastBatch(), stB.LastBatch())
	}
	rejecter, applier := rt.members[0], rt.members[1]
	if rejecter.divergent.Load() || !rejecter.current.Load() {
		t.Fatalf("the rejecting member was demoted: %q", rejecter.lagErrText())
	}
	if !applier.divergent.Load() || applier.current.Load() {
		t.Fatal("the member that applied a rejected batch was not marked divergent")
	}
	if msg := applier.lagErrText(); !strings.Contains(msg, "applied batch 1, which another member rejected") {
		t.Fatalf("divergent member's lag error %q does not say why", msg)
	}
}

// lostRejectionEngine runs the real Apply and then loses the reply of
// its first rejected batch: the worker decided the batch, the router
// sees a transport failure and re-sends it.
type lostRejectionEngine struct {
	ShardEngine
	drop atomic.Int32
}

func (e *lostRejectionEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	v, err := e.ShardEngine.Apply(ctx, batch, ops)
	if err != nil && e.drop.Add(-1) >= 0 {
		return 0, fmt.Errorf("%w: injected loss of a rejection's reply", ErrTransport)
	}
	return v, err
}

// TestLostRejectionReplyStaysRejected: a worker that rejected a batch and
// lost the reply answers the router's re-send with the same rejection,
// so the router returns the semantic error, marks no member divergent,
// and both workers keep the graph an untouched store holds — whether the
// batch's add was a new edge or a duplicate of one the graph holds.
func TestLostRejectionReplyStaysRejected(t *testing.T) {
	g := testGraph(60, 31)
	if slices.Contains(g.OutNeighbors(58), 57) || slices.Contains(g.OutNeighbors(1), 2) || !slices.Contains(g.OutNeighbors(1), 0) {
		t.Fatalf("out(58) = %v, out(1) = %v: the test needs 58->57 and 1->2 absent and 1->0 present", g.OutNeighbors(58), g.OutNeighbors(1))
	}
	for _, c := range []struct {
		name string
		add  graph.EdgeOp
	}{
		{"new edge", graph.EdgeOp{U: 1, V: 2}},
		{"duplicate edge", graph.EdgeOp{U: 1, V: 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			untouched := shard.NewStore(g, 4, 0)
			stA := shard.NewStore(g, 4, 0)
			stB := shard.NewStore(g, 4, 0)
			lossy := &lostRejectionEngine{ShardEngine: NewLocalEngine(stA)}
			lossy.drop.Store(1)
			rt, err := New(lossy, NewLocalEngine(stB))
			if err != nil {
				t.Fatal(err)
			}
			err = rt.Apply(ctx, []graph.EdgeOp{c.add, {Remove: true, U: 58, V: 57}})
			if err == nil || errors.Is(err, ErrTransport) {
				t.Fatalf("apply returned %v, want the semantic rejection", err)
			}
			if rt.Counters().ApplyRetries != 1 {
				t.Fatalf("applyRetries %d, want 1 (the re-send after the lost reply)", rt.Counters().ApplyRetries)
			}
			for i, m := range rt.members {
				if m.divergent.Load() || !m.current.Load() {
					t.Fatalf("member %d demoted after a rejection every member made: %q", i, m.lagErrText())
				}
			}
			for i, st := range []*shard.Store{stA, stB} {
				assertSameLists(t, fmt.Sprintf("worker %d", i), untouched.Current(), st.Publish())
			}
			if _, err := rt.PublishView(ctx); err != nil {
				t.Fatalf("publication after the rejection: %v", err)
			}
		})
	}
}

// downEngine fails every write-plane call in transport while down is
// set: an unreachable replica whose store survives behind it.
type downEngine struct {
	ShardEngine
	down atomic.Bool
}

var errInjectedOutage = fmt.Errorf("%w: injected outage", ErrTransport)

func (e *downEngine) Apply(ctx context.Context, batch uint64, ops []graph.EdgeOp) (uint64, error) {
	if e.down.Load() {
		return 0, errInjectedOutage
	}
	return e.ShardEngine.Apply(ctx, batch, ops)
}

func (e *downEngine) Ping(ctx context.Context) (uint64, uint64, error) {
	if e.down.Load() {
		return 0, 0, errInjectedOutage
	}
	return e.ShardEngine.Ping(ctx)
}

func (e *downEngine) Publish(ctx context.Context) (Meta, error) {
	if e.down.Load() {
		return Meta{}, errInjectedOutage
	}
	return e.ShardEngine.Publish(ctx)
}

// TestDemotedReplicaReplaysRejectedBatch: a replica whose Apply fails in
// transport on a batch the rest of the set rejects is only demoted, not
// marked divergent. When it returns, it replays the batch from the ring,
// rejects it as the live replica did, and is re-admitted at the same
// watermark with the same lists; the set then takes the next write.
func TestDemotedReplicaReplaysRejectedBatch(t *testing.T) {
	ctx := context.Background()
	g := testGraph(60, 31)
	ref := shard.NewStore(g, 4, 0)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	a := &downEngine{ShardEngine: NewLocalEngine(stA)}
	rt, err := New(a, NewLocalEngine(stB))
	if err != nil {
		t.Fatal(err)
	}
	ok := []graph.EdgeOp{{U: 1, V: 2}}
	if err := rt.Apply(ctx, ok); err != nil {
		t.Fatal(err)
	}
	applyToStore(t, ref, ok)
	a.down.Store(true)
	bad := []graph.EdgeOp{{Remove: true, U: 10, V: g.OutNeighbors(10)[0]}, {U: 5, V: 5}}
	if err := rt.Apply(ctx, bad); err == nil || errors.Is(err, ErrTransport) {
		t.Fatalf("apply returned %v, want the semantic rejection", err)
	}
	if m := rt.members[0]; m.current.Load() || m.divergent.Load() {
		t.Fatalf("unreachable replica: current %v, divergent %v (%q); want demoted only", m.current.Load(), m.divergent.Load(), m.lagErrText())
	}
	a.down.Store(false)
	if err := rt.CheckHealth(ctx); err != nil {
		t.Fatalf("health pass after the replica returned: %v", err)
	}
	for _, ws := range rt.WorkerStats() {
		if !ws.Current {
			t.Fatalf("replica %d not re-admitted: %q", ws.Replica, ws.LagError)
		}
	}
	if c := rt.Counters().CatchupBatches; c != 1 {
		t.Fatalf("%d batches replayed from the ring, want 1 (the rejected one)", c)
	}
	for i, st := range []*shard.Store{stA, stB} {
		if st.LastBatch() != 2 {
			t.Fatalf("replica %d at watermark %d, want 2", i, st.LastBatch())
		}
		assertSameLists(t, fmt.Sprintf("replica %d", i), ref.Publish(), st.Publish())
	}
	next := []graph.EdgeOp{{U: 3, V: 4}}
	if err := rt.Apply(ctx, next); err != nil {
		t.Fatalf("write after the re-admission: %v", err)
	}
	if _, err := rt.PublishView(ctx); err != nil {
		t.Fatalf("publication after the re-admission: %v", err)
	}
}

// TestApplyRefusedWithNoCurrentWorker: the write that meets two
// engines going down still fails in transport, keeps its batch id and is
// replayed when they return; a second write while both are demoted is
// refused with ErrNoCurrentWorker before it takes an id or a ring slot,
// so after the engines return and the health pass re-admits them they
// hold the first batch only.
func TestApplyRefusedWithNoCurrentWorker(t *testing.T) {
	ctx := context.Background()
	g := testGraph(60, 31)
	stA, stB := shard.NewStore(g, 4, 0), shard.NewStore(g, 4, 0)
	a := &downEngine{ShardEngine: NewLocalEngine(stA)}
	b := &downEngine{ShardEngine: NewLocalEngine(stB)}
	rt, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	before := stA.NumEdges()
	a.down.Store(true)
	b.down.Store(true)
	if err := rt.Apply(ctx, []graph.EdgeOp{{U: 1, V: 2}}); !errors.Is(err, ErrTransport) || errors.Is(err, ErrNoCurrentWorker) {
		t.Fatalf("write as the engines went down: %v, want ErrTransport", err)
	}
	if err := rt.Apply(ctx, []graph.EdgeOp{{U: 3, V: 4}}); !errors.Is(err, ErrNoCurrentWorker) {
		t.Fatalf("write with every engine demoted: %v, want ErrNoCurrentWorker", err)
	}
	if id := rt.nextBatch.Load(); id != 1 {
		t.Fatalf("batch ids used up to %d, want 1: the refused write must not take one", id)
	}
	if _, ok := rt.ring.get(2); ok {
		t.Fatal("the refused write holds a ring slot")
	}
	a.down.Store(false)
	b.down.Store(false)
	if err := rt.CheckHealth(ctx); err != nil {
		t.Fatalf("health pass after the engines returned: %v", err)
	}
	for i, st := range []*shard.Store{stA, stB} {
		if got := st.NumEdges(); got != before+1 || st.LastBatch() != 1 {
			t.Fatalf("engine %d: %d edges at watermark %d, want %d at 1 (the first batch only)", i, got, st.LastBatch(), before+1)
		}
	}
	if err := rt.Apply(ctx, []graph.EdgeOp{{U: 3, V: 4}}); err != nil {
		t.Fatalf("retry of the refused write after the re-admission: %v", err)
	}
}

// TestWorkerWALSurvivesRestart: a durable worker (LocalEngine + WAL)
// that dies after applying an identified batch comes back with the batch
// — the whole point of worker-side durability.
func TestWorkerWALSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(100, 37)
	lg, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	st := shard.NewStore(g, 4, 0)
	eng := NewLocalEngine(st)
	eng.SetWAL(lg)
	if _, err := eng.Apply(context.Background(), 1, []graph.EdgeOp{{U: 2, V: 3}, {U: 4, V: 5}}); err != nil {
		t.Fatal(err)
	}
	wantEdges := st.NumEdges()
	// Crash: abandon everything. Reboot path: fresh store from the same
	// graph file, replay the log above its (empty) watermark.
	st2 := shard.NewStore(g, 4, 0)
	_, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(st2.LastBatch(), func(id uint64, ops []graph.EdgeOp) error {
		_, err := st2.ApplyBatch(id, ops)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if st2.NumEdges() != wantEdges || st2.LastBatch() != 1 {
		t.Fatalf("recovered edges=%d batch=%d, want %d/1", st2.NumEdges(), st2.LastBatch(), wantEdges)
	}
	// And the retried batch is still a no-op after recovery.
	eng2 := NewLocalEngine(st2)
	if _, err := eng2.Apply(context.Background(), 1, []graph.EdgeOp{{U: 2, V: 3}, {U: 4, V: 5}}); err != nil {
		t.Fatal(err)
	}
	if st2.NumEdges() != wantEdges {
		t.Fatal("recovered worker re-applied a decided batch")
	}
}
