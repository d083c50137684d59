package router

import (
	"context"
	"errors"
	"fmt"
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
	re, _, le := startWorker(t, g, 8, 0, 1)
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
	flaky := &lostReplyEngine{ShardEngine: NewLocalEngine(stA, 0, 2)}
	flaky.dropReplies.Store(1)
	rt, err := New(flaky, NewLocalEngine(stB, 1, 2))
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

// TestRouterApplyExhaustsRetries: a worker that stays unreachable makes
// Apply fail with ErrTransport after the retry budget — and the healthy
// engine is NOT rolled back (its copy is durable and idempotent; the
// dead worker heals from its own log or fails watermark agreement).
func TestRouterApplyExhaustsRetries(t *testing.T) {
	g := testGraph(80, 29)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	dead := &deadEngine{ShardEngine: NewLocalEngine(stA, 0, 2)}
	rt, err := New(dead, NewLocalEngine(stB, 1, 2))
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
	if got := stB.NumEdges(); got != before+1 {
		t.Fatalf("healthy engine edges %d, want %d (no rollback on transport failure)", got, before+1)
	}
}

// TestRouterApplySemanticRollback: deterministic rejections still roll
// the fleet back — durable ids do not change the validity contract.
func TestRouterApplySemanticRollback(t *testing.T) {
	g := testGraph(60, 31)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	rt, err := New(NewLocalEngine(stA, 0, 2), NewLocalEngine(stB, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	before := stA.NumEdges()
	ops := []graph.EdgeOp{{U: 1, V: 2}, {Remove: true, U: 58, V: 57}}
	if err := rt.Apply(context.Background(), ops); err == nil {
		t.Skip("edge 58->57 existed; batch applied cleanly")
	}
	if stA.NumEdges() != before || stB.NumEdges() != before {
		t.Fatalf("rollback left %d/%d edges, want %d", stA.NumEdges(), stB.NumEdges(), before)
	}
	if err := stA.Validate(); err != nil {
		t.Fatal(err)
	}
	// Watermarks advanced identically on both sides (decided batches).
	if stA.LastBatch() != stB.LastBatch() {
		t.Fatalf("watermarks diverged after rollback: %d vs %d", stA.LastBatch(), stB.LastBatch())
	}
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

// TestMixedSemanticRollbackConvergesWatermarks: when one engine applies
// a batch and another rejects it, the rollback round must land every
// reachable engine on the SAME watermark (one shared leveling id), or
// the next assembly would flag a healthy fleet as diverged.
func TestMixedSemanticRollbackConvergesWatermarks(t *testing.T) {
	g := testGraph(80, 43)
	stA := shard.NewStore(g, 4, 0)
	stB := shard.NewStore(g, 4, 0)
	veto := &vetoEngine{LocalEngine: NewLocalEngine(stA, 0, 2)}
	veto.veto.Store(1)
	rt, err := New(veto, NewLocalEngine(stB, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	before := stB.NumEdges()
	if err := rt.Apply(context.Background(), []graph.EdgeOp{{U: 2, V: 5}}); err == nil {
		t.Fatal("vetoed batch reported success")
	}
	if got := stB.NumEdges(); got != before {
		t.Fatalf("engine B edges %d after rollback, want %d", got, before)
	}
	if stA.LastBatch() != stB.LastBatch() {
		t.Fatalf("watermarks diverged after mixed rollback: %d vs %d", stA.LastBatch(), stB.LastBatch())
	}
	// The fleet reassembles cleanly — the watermark-agreement check must
	// NOT fire on a converged rollback.
	if _, err := New(veto, NewLocalEngine(stB, 1, 2)); err != nil {
		t.Fatalf("assembly after converged rollback: %v", err)
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
	eng := NewLocalEngine(st, 0, 1)
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
	eng2 := NewLocalEngine(st2, 0, 1)
	if _, err := eng2.Apply(context.Background(), 1, []graph.EdgeOp{{U: 2, V: 3}, {U: 4, V: 5}}); err != nil {
		t.Fatal(err)
	}
	if st2.NumEdges() != wantEdges {
		t.Fatal("recovered worker re-applied a decided batch")
	}
}
