// Package budget implements the per-query cancellation and work-budget
// seam of the serving stack: a Meter shared by every worker of one query,
// plus a Checkpoint that amortizes the cost of consulting it inside hot
// kernel loops.
//
// ProbeSim's selling point is bounded per-query work on dynamic graphs;
// the Meter is what actually enforces the bound at serving time. A query
// carries (via context.Context and core.Budget) a wall-clock deadline, a
// cap on √c-walk trials, and a cap on probe edge traversals. Kernels do
// not poll the clock or the context channel on every iteration — that
// would cost more than the work being metered. Instead:
//
//   - Stopped() is a single atomic load, cheap enough for every walk
//     trial and every probe level.
//   - Poll() does the expensive part (time.Now + ctx.Err) and is called
//     every checkpoint interval, so detection latency is bounded by one
//     interval while steady-state overhead stays in the noise.
//   - ChargeWalks/ChargeWork count the query's actual work; crossing a
//     cap trips the meter exactly like a deadline does.
//
// A nil *Meter is valid everywhere and means "unbounded": every method
// is a nil-check, so un-budgeted queries (context.Background, zero
// Budget) pay one predictable branch per checkpoint and nothing else.
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"probesim/internal/qtrace"
)

// ErrBudget reports that a query exhausted an explicit work budget (walk
// or probe-work cap) rather than a deadline. Callers distinguish it from
// context.DeadlineExceeded / context.Canceled with errors.Is.
var ErrBudget = errors.New("query work budget exhausted")

// Error is the structured cancellation error a metered query returns: the
// cause (ErrBudget, context.DeadlineExceeded or context.Canceled) plus
// how much work the query had done when it tripped. Results returned
// alongside an *Error are partial: merged from whatever the workers had
// accumulated, not satisfying any accuracy guarantee.
type Error struct {
	Cause   error
	Walks   int64         // √c-walk trials completed
	Work    int64         // probe edge traversals charged
	Elapsed time.Duration // wall clock since the meter was armed

	// Shared reports that the trip came from a constraint baked into the
	// query configuration (a walk/work cap, or a deadline derived from
	// Budget.Timeout) rather than from the caller's own context. A shared
	// failure is deterministic for every identically-configured retry, so
	// single-flight waiters must inherit it instead of recomputing; a
	// caller-context failure (Shared=false) is one request's patience and
	// other callers may retry under their own contexts.
	Shared bool
}

func (e *Error) Error() string {
	return fmt.Sprintf("query stopped after %d walks, %d probe work, %v: %v",
		e.Walks, e.Work, e.Elapsed.Round(time.Microsecond), e.Cause)
}

// Unwrap exposes the cause so errors.Is(err, context.DeadlineExceeded)
// and errors.Is(err, ErrBudget) work on the wrapped form.
func (e *Error) Unwrap() error { return e.Cause }

// Meter is one query's shared cancellation state. All methods are safe
// for concurrent use by the query's workers, and all are nil-safe: a nil
// Meter never stops anything.
type Meter struct {
	ctx      context.Context
	deadline time.Time
	hasDL    bool
	// dlFromBudget records that the effective deadline came from
	// Budget.Timeout (shared query configuration) rather than the
	// caller's context; see Error.Shared.
	dlFromBudget bool
	maxWalks     int64
	maxWork      int64
	start        time.Time

	// tr, when non-nil, is the query's sampled trace recorder. The meter
	// carries it so kernels get stage-timing hooks without learning a
	// second context object; unsampled queries leave it nil and every
	// hook below costs one branch.
	tr *qtrace.Trace

	walks   atomic.Int64
	work    atomic.Int64
	stopped atomic.Bool

	mu    sync.Mutex
	cause error
}

// New arms a meter for one query: the effective deadline is the earlier
// of ctx's deadline and now+timeout (timeout <= 0 means no extra bound),
// and maxWalks/maxWork cap trial count and probe edge traversals (<= 0
// means uncapped). When nothing can ever stop the query — no deadline,
// no cancelable context, no caps — New returns nil, which every kernel
// accepts as "unbounded" at one branch of cost per checkpoint.
func New(ctx context.Context, timeout time.Duration, maxWalks, maxWork int64) *Meter {
	if ctx == nil {
		ctx = context.Background()
	}
	now := time.Now()
	dl, hasDL := ctx.Deadline()
	dlFromBudget := false
	if timeout > 0 {
		if t := now.Add(timeout); !hasDL || t.Before(dl) {
			dl, hasDL, dlFromBudget = t, true, true
		}
	}
	tr, _ := qtrace.FromContext(ctx)
	if !hasDL && ctx.Done() == nil && maxWalks <= 0 && maxWork <= 0 && tr == nil {
		return nil
	}
	if maxWalks < 0 {
		maxWalks = 0
	}
	if maxWork < 0 {
		maxWork = 0
	}
	return &Meter{
		ctx:          ctx,
		deadline:     dl,
		hasDL:        hasDL,
		dlFromBudget: dlFromBudget,
		maxWalks:     maxWalks,
		maxWork:      maxWork,
		start:        now,
		tr:           tr,
	}
}

// StageStart opens a stage-timing window: it returns the current instant
// when the query is traced and the zero time otherwise, so the unsampled
// path never reads the clock. Pair with StageEnd.
func (m *Meter) StageStart() time.Time {
	if m == nil || m.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// StageEnd charges the window since t0 to stage s and returns the new
// instant, so adjacent stages chain at one clock read per boundary:
//
//	clk := m.StageStart()
//	... walk ...
//	clk = m.StageEnd(qtrace.StageWalk, clk)
//	... probe ...
//	clk = m.StageEnd(qtrace.StageProbe, clk)
//
// A zero t0 (unsampled query) is a no-op.
func (m *Meter) StageEnd(s qtrace.Stage, t0 time.Time) time.Time {
	if t0.IsZero() {
		return t0
	}
	now := time.Now()
	m.tr.AddStage(s, now.Sub(t0))
	return now
}

// AddProbeLevels counts n expanded probe levels toward the trace's
// per-probe-level work attribution. One branch when untraced.
func (m *Meter) AddProbeLevels(n int64) {
	if m == nil || m.tr == nil {
		return
	}
	m.tr.AddProbeLevels(n)
}

// trip latches the first cause; later trips are ignored.
func (m *Meter) trip(cause error) {
	m.mu.Lock()
	if m.cause == nil {
		m.cause = cause
		m.stopped.Store(true)
	}
	m.mu.Unlock()
}

// Stopped reports whether the meter has tripped. One atomic load; safe
// to call on every hot-loop iteration.
func (m *Meter) Stopped() bool {
	return m != nil && m.stopped.Load()
}

// Poll runs the expensive checks — deadline against the clock, context
// cancellation — trips the meter if either fired, and reports whether the
// query should stop. Call it once per checkpoint interval, Stopped() in
// between.
func (m *Meter) Poll() bool {
	if m == nil {
		return false
	}
	if m.stopped.Load() {
		return true
	}
	if m.hasDL && !time.Now().Before(m.deadline) {
		m.trip(context.DeadlineExceeded)
		return true
	}
	if err := m.ctx.Err(); err != nil {
		m.trip(err)
		return true
	}
	return false
}

// ChargeWalks records n completed √c-walk trials, tripping the meter when
// the walk cap is crossed.
func (m *Meter) ChargeWalks(n int64) {
	if m == nil {
		return
	}
	if w := m.walks.Add(n); m.maxWalks > 0 && w > m.maxWalks {
		m.trip(ErrBudget)
	}
}

// WalkCapped reports whether the query caps its walk trials. Kernels that
// charge walks in batches charge them one at a time while it holds, so
// the cap trips within one walk per worker.
func (m *Meter) WalkCapped() bool { return m != nil && m.maxWalks > 0 }

// workPollInterval is the probe-work volume between clock/context polls
// driven from ChargeWork: every time the cumulative work counter crosses
// a 64Ki boundary, the charging worker runs a full Poll. This is what
// makes a deadline observable inside one long probe (whose levels charge
// as they expand) rather than only at walk-trial boundaries — at ~1ns
// per edge traversal a boundary passes every few tens of microseconds of
// work, while the time.Now amortizes to nothing.
const workPollInterval = 1 << 16

// ChargeWork records n units of probe work (edge traversals), tripping
// the meter when the work cap is crossed and polling the deadline and
// context whenever the cumulative work crosses a poll boundary.
func (m *Meter) ChargeWork(n int64) {
	if m == nil {
		return
	}
	w := m.work.Add(n)
	if m.maxWork > 0 && w > m.maxWork {
		m.trip(ErrBudget)
		return
	}
	if w/workPollInterval != (w-n)/workPollInterval {
		m.Poll()
	}
}

// Err returns nil while the meter has not tripped, and the structured
// *Error afterwards.
func (m *Meter) Err() error {
	if m == nil || !m.stopped.Load() {
		return nil
	}
	m.mu.Lock()
	cause := m.cause
	m.mu.Unlock()
	return &Error{
		Cause:   cause,
		Walks:   m.walks.Load(),
		Work:    m.work.Load(),
		Elapsed: time.Since(m.start),
		Shared:  errors.Is(cause, ErrBudget) || (m.dlFromBudget && errors.Is(cause, context.DeadlineExceeded)),
	}
}

// Walks returns the number of walk trials charged so far.
func (m *Meter) Walks() int64 {
	if m == nil {
		return 0
	}
	return m.walks.Load()
}

// Work returns the probe work charged so far.
func (m *Meter) Work() int64 {
	if m == nil {
		return 0
	}
	return m.work.Load()
}

// DefaultInterval is the checkpoint interval kernels use between full
// Poll()s: small enough that a 1ms deadline is honored within tens of
// microseconds of work on typical graphs, large enough that the clock
// read disappears into the per-trial cost.
const DefaultInterval = 16

// Checkpoint amortizes Poll for one worker: Stop() is an atomic load on
// most calls and a full Poll every interval-th call. Each worker owns its
// own Checkpoint (the struct is not safe for concurrent use); all
// checkpoints of a query share the meter, so any worker noticing expiry
// stops every other worker at its next Stop().
type Checkpoint struct {
	m        *Meter
	interval uint32
	n        uint32
}

// NewCheckpoint returns a checkpoint over m polling every interval calls
// (DefaultInterval when interval <= 0). The first Stop() call polls, so a
// query that arrives already expired stops before doing any work.
func NewCheckpoint(m *Meter, interval int) Checkpoint {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return Checkpoint{m: m, interval: uint32(interval)}
}

// Stop reports whether the query should stop. Safe to call on every
// iteration of a hot loop.
func (c *Checkpoint) Stop() bool {
	if c.m == nil {
		return false
	}
	if c.n == 0 {
		c.n = c.interval
		return c.m.Poll()
	}
	c.n--
	return c.m.Stopped()
}
