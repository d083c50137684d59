// Package qtrace is the query-tracing seam of the serving stack: a
// zero-dependency (standard library only), allocation-conscious span
// recorder threaded through the whole query lifecycle — admission wait,
// snapshot/view resolution, walk generation, per-probe-level work, and
// every shard RPC with its failover/hedge outcome — stitched across
// process boundaries under one 128-bit trace id.
//
// The design mirrors the budget package's nil-safety contract: a nil
// *Trace is valid everywhere and records nothing, so the unsampled hot
// path pays one branch per instrumentation point and allocates nothing.
// Sampling is decided once per request (probabilistic rate, a slow-query
// threshold for the always-on log, or a per-request ?trace=1 force); only
// sampled requests carry a live *Trace through their context.
//
// Spans live in a single slab per trace ([]Span appended under a mutex,
// capped at MaxSpans) and are identified by their slab position, so a
// span costs one append and no per-span allocation beyond slab growth.
// Worker-side traces are serialized over the rpcwire reply trailer and
// grafted into the caller's slab with re-based offsets, which is what
// makes a cross-process trace read as one tree.
package qtrace

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit query trace identifier. The zero value means
// "no trace".
type TraceID struct {
	Hi, Lo uint64
}

// NewID draws a random non-zero trace id. It uses the global math/rand/v2
// generator — never a query's seeded xrand stream — so tracing cannot
// perturb the deterministic walk draws that bit-identity across replicas
// depends on.
func NewID() TraceID {
	for {
		id := TraceID{Hi: rand.Uint64(), Lo: rand.Uint64()}
		if !id.IsZero() {
			return id
		}
	}
}

// IsZero reports whether id is the absent trace id.
func (id TraceID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string {
	return fmt.Sprintf("%016x%016x", id.Hi, id.Lo)
}

// ParseID parses the String form; ok is false for anything else.
func ParseID(s string) (TraceID, bool) {
	if len(s) != 32 {
		return TraceID{}, false
	}
	hi, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return TraceID{}, false
	}
	lo, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return TraceID{}, false
	}
	id := TraceID{Hi: hi, Lo: lo}
	return id, !id.IsZero()
}

// SpanRef names a span within its trace: the 1-based slab position.
// Zero is "no span" (used both as the root parent and as the no-op ref
// returned by a nil trace).
type SpanRef uint32

// Span is one recorded operation. Start and End are offsets from the
// trace's arming instant; End == 0 marks a span still open.
type Span struct {
	ID     uint32
	Parent uint32
	Name   string
	Start  time.Duration
	End    time.Duration
	Attrs  string
}

// MarshalJSON renders a span with microsecond timings, the shape
// /debug/queries and ?trace=1 expose.
func (s Span) MarshalJSON() ([]byte, error) {
	type js struct {
		ID      uint32  `json:"id"`
		Parent  uint32  `json:"parent,omitempty"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
		Attrs   string  `json:"attrs,omitempty"`
	}
	return json.Marshal(js{
		ID:      s.ID,
		Parent:  s.Parent,
		Name:    s.Name,
		StartUS: float64(s.Start) / float64(time.Microsecond),
		DurUS:   float64(s.End-s.Start) / float64(time.Microsecond),
		Attrs:   s.Attrs,
	})
}

// Stage identifies a kernel work stage whose wall time is aggregated (not
// recorded span-by-span: a query runs thousands of walk trials and probe
// invocations; per-stage atomic accumulators keep attribution O(1) in
// space).
type Stage uint8

const (
	StageWalk  Stage = iota // √c-walk generation; in batched modes the whole walk-tree build (draws, inserts, merge, path enumeration)
	StageProbe              // probe expansion (deterministic or randomized)
	NumStages
)

// String names the stage for logs and metrics labels.
func (s Stage) String() string {
	switch s {
	case StageWalk:
		return "walk"
	case StageProbe:
		return "probe"
	}
	return "stage" + strconv.Itoa(int(s))
}

// StageTotal is one stage's aggregate: summed wall time across workers
// (so it can exceed the query's elapsed time on parallel kernels) and an
// invocation count.
type StageTotal struct {
	NS int64 `json:"ns"`
	N  int64 `json:"n"`
}

// MaxSpans caps a trace's slab. A query that would record more (a huge
// walk fan-out on a tiny segment size) keeps its first MaxSpans spans and
// counts the rest as dropped, bounding trace memory per query.
const MaxSpans = 512

// Trace records one query's spans and stage aggregates. All methods are
// safe for concurrent use by the query's workers and are nil-safe: a nil
// Trace records nothing at one branch of cost.
type Trace struct {
	id     TraceID
	start  time.Time
	forced bool

	stages      [NumStages]stageAgg
	probeLevels atomic.Int64

	mu      sync.Mutex
	spans   []Span
	dropped int
}

type stageAgg struct {
	ns atomic.Int64
	n  atomic.Int64
}

// New arms a trace recorder under the given id, anchored at the current
// instant.
func New(id TraceID) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace id (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// SetForced marks the trace as requested explicitly (?trace=1), which
// asks the response handler to inline the span tree.
func (t *Trace) SetForced() {
	if t != nil {
		t.forced = true
	}
}

// Forced reports whether the span tree should be inlined in the response.
func (t *Trace) Forced() bool { return t != nil && t.forced }

// Since returns the offset of the current instant from the trace's
// arming time.
func (t *Trace) Since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// StartSpan opens a span under parent (0 = root) and returns its ref.
// On a nil trace, or past the MaxSpans cap, it returns 0, which every
// other method accepts as a no-op.
func (t *Trace) StartSpan(name string, parent SpanRef) SpanRef {
	if t == nil {
		return 0
	}
	off := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= MaxSpans {
		t.dropped++
		return 0
	}
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: uint32(parent), Name: name, Start: off})
	return SpanRef(id)
}

// EndSpan closes ref at the current instant.
func (t *Trace) EndSpan(ref SpanRef) { t.EndSpanAnnot(ref, "") }

// EndSpanAnnot closes ref and appends attrs (comma-separated k=v pairs)
// to its annotation. Closing an already-closed span only appends attrs.
func (t *Trace) EndSpanAnnot(ref SpanRef, attrs string) {
	if t == nil || ref == 0 {
		return
	}
	off := time.Since(t.start)
	if off <= 0 {
		off = 1 // End==0 is the "open" sentinel
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int(ref) - 1
	if i < 0 || i >= len(t.spans) {
		return
	}
	s := &t.spans[i]
	if s.End == 0 {
		s.End = off
	}
	if attrs != "" {
		if s.Attrs != "" {
			s.Attrs += ","
		}
		s.Attrs += attrs
	}
}

// Annotate appends attrs to ref without closing it.
func (t *Trace) Annotate(ref SpanRef, attrs string) {
	if t == nil || ref == 0 || attrs == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int(ref) - 1
	if i < 0 || i >= len(t.spans) {
		return
	}
	s := &t.spans[i]
	if s.Attrs != "" {
		s.Attrs += ","
	}
	s.Attrs += attrs
}

// AddStage charges d of wall time (and one invocation) to a stage
// aggregate. Safe from any worker; two atomic adds.
func (t *Trace) AddStage(s Stage, d time.Duration) {
	if t == nil || s >= NumStages {
		return
	}
	t.stages[s].ns.Add(int64(d))
	t.stages[s].n.Add(1)
}

// AddProbeLevels counts n expanded probe levels (the per-probe-level work
// attribution the probe kernels report).
func (t *Trace) AddProbeLevels(n int64) {
	if t == nil {
		return
	}
	t.probeLevels.Add(n)
}

// StageTotals snapshots the stage aggregates.
func (t *Trace) StageTotals() [NumStages]StageTotal {
	var out [NumStages]StageTotal
	if t == nil {
		return out
	}
	for i := range out {
		out[i] = StageTotal{NS: t.stages[i].ns.Load(), N: t.stages[i].n.Load()}
	}
	return out
}

// ProbeLevels returns the probe-level count.
func (t *Trace) ProbeLevels() int64 {
	if t == nil {
		return 0
	}
	return t.probeLevels.Load()
}

// Graft splices a remote worker's spans (offsets relative to the worker's
// own trace start) into this trace under parent, re-based at base —
// normally the start offset of the client-side RPC span, since clocks on
// the two sides need not agree. Remote span ids are remapped onto this
// trace's slab; internal parent links are preserved, roots re-parent to
// parent. label, when non-empty, is appended to each grafted root's
// attrs (the worker address).
func (t *Trace) Graft(parent SpanRef, spans []Span, base time.Duration, label string) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	off := uint32(len(t.spans))
	for _, s := range spans {
		if len(t.spans) >= MaxSpans {
			t.dropped += len(spans) - int(uint32(len(t.spans))-off)
			return
		}
		// Remote ids are slab positions on the worker side; only links
		// that stay inside the grafted batch survive the remap.
		if s.Parent != 0 && int(s.Parent) <= len(spans) {
			s.Parent += off
		} else {
			s.Parent = uint32(parent)
			if label != "" {
				if s.Attrs != "" {
					s.Attrs += ","
				}
				s.Attrs += label
			}
		}
		s.ID = uint32(len(t.spans) + 1)
		s.Start += base
		if s.End != 0 {
			s.End += base
		}
		t.spans = append(t.spans, s)
	}
}

// Snapshot copies the spans recorded so far, closing still-open spans at
// the current instant with an "open" marker so durations are always
// well-defined. Safe to call while workers are still recording.
func (t *Trace) Snapshot() []Span {
	if t == nil {
		return nil
	}
	now := time.Since(t.start)
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	for i := range out {
		if out[i].End == 0 {
			out[i].End = now
			if out[i].Attrs != "" {
				out[i].Attrs += ","
			}
			out[i].Attrs += "open"
		}
	}
	return out
}

// Dropped returns how many spans the MaxSpans cap discarded.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Context plumbing. One key carries both the live trace and the current
// parent span, so crossing an API boundary (router → engine → kernel)
// nests spans without new parameters.

type ctxKey struct{}

type ctxVal struct {
	tr   *Trace
	span SpanRef
}

// NewContext returns ctx carrying tr with span as the current parent.
func NewContext(ctx context.Context, tr *Trace, span SpanRef) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{tr: tr, span: span})
}

// FromContext returns the live trace and current parent span, or
// (nil, 0) when the request is unsampled.
func FromContext(ctx context.Context) (*Trace, SpanRef) {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.tr, v.span
	}
	return nil, 0
}

// ContextWithSpan re-parents ctx's trace at span. A no-op (returning ctx)
// when ctx carries no trace.
func ContextWithSpan(ctx context.Context, span SpanRef) context.Context {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok {
		return ctx
	}
	v.span = span
	return context.WithValue(ctx, ctxKey{}, v)
}
