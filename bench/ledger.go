package main

// The traced run's ledger. Every number comes from outside the program:
// the benchmark's own clock around its calls, a handler wrapper it puts in
// front of the server (matched to client records by the X-Bench-Op
// header), the write-ahead log's and store's public callbacks, and the
// span tree the server already returns for ?trace=1.

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"probesim/internal/qtrace"
	"probesim/internal/shard"
	"probesim/internal/wal"
)

// mark is the server-side handler entry and exit of one tagged request.
type mark struct{ in, out time.Duration }

// batchKey names a write batch by its first edge and direction; the op
// stream never has two batches with the same key pending at once.
type batchKey struct {
	e      edge
	remove bool
}

// ledger is nil in untraced runs; its hooks are nil-safe, so the stack
// builders call them unconditionally.
type ledger struct {
	next http.Handler

	mu      sync.Mutex
	marks   map[int]mark
	durable map[batchKey][]time.Duration // WAL append callbacks
	applied map[batchKey][]time.Duration // store applied callbacks
}

func newLedger() *ledger {
	return &ledger{
		marks:   make(map[int]mark),
		durable: make(map[batchKey][]time.Duration),
		applied: make(map[batchKey][]time.Duration),
	}
}

// ServeHTTP times the wrapped server's handler for requests carrying
// opHeader.
func (l *ledger) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(opHeader))
	if err != nil {
		l.next.ServeHTTP(w, r)
		return
	}
	in := now()
	l.next.ServeHTTP(w, r)
	out := now()
	l.mu.Lock()
	l.marks[id] = mark{in, out}
	l.mu.Unlock()
}

func (l *ledger) hookStore(st *shard.Store) {
	if l == nil {
		return
	}
	st.SubscribeApplied(func(_ uint64, ops []shard.EdgeOp) {
		if len(ops) > 0 {
			l.note(l.applied, batchKey{edge{int32(ops[0].U), int32(ops[0].V)}, ops[0].Remove})
		}
	})
}

func (l *ledger) hookWAL(lg *wal.Log) {
	if l == nil {
		return
	}
	lg.Subscribe(func(_ uint64, ops []wal.Op) {
		if len(ops) > 0 {
			l.note(l.durable, batchKey{edge{int32(ops[0].U), int32(ops[0].V)}, ops[0].Remove})
		}
	})
}

func (l *ledger) note(m map[batchKey][]time.Duration, k batchKey) {
	t := now()
	l.mu.Lock()
	m[k] = append(m[k], t)
	l.mu.Unlock()
}

func (l *ledger) mark(id int) (mark, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.marks[id]
	return m, ok
}

// writeSplit divides one traced write's handler time at the last WAL
// callback and the last store callback for its batch (the routed stack
// has one store per worker). A stack without a WAL is durable the moment
// the handler starts, so toDurable is 0 there.
func (l *ledger) writeSplit(o op, m mark) (toDurable, apply, publish time.Duration, ok bool) {
	k := batchKey{o.Edges[0], o.Remove}
	l.mu.Lock()
	defer l.mu.Unlock()
	last := func(ts []time.Duration) (time.Duration, bool) {
		var t time.Duration
		found := false
		for _, x := range ts {
			if x >= m.in && x <= m.out && x >= t {
				t, found = x, true
			}
		}
		return t, found
	}
	dur, found := last(l.durable[k])
	if !found {
		dur = m.in
	}
	app, found := last(l.applied[k])
	if !found || app < dur {
		return 0, 0, 0, false
	}
	return dur - m.in, app - dur, m.out - app, true
}

// spanJSON is a span as ?trace=1 inlines it.
type spanJSON struct {
	ID      uint32  `json:"id"`
	Parent  uint32  `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Attrs   string  `json:"attrs"`
}

// spanTotals is what the ledger takes from one query's span tree.
type spanTotals struct {
	seen      bool
	admission time.Duration
	kernel    time.Duration // kernel span minus the RPC wall time inside it
	rpc       time.Duration // wall time covered by rpc.* attempt spans
	ran       bool          // the kernel ran (no cache or hot-tier hit)
	walks     int64         // the kernel span's walks= attribute
	work      int64         // the kernel span's work= attribute
	stages    [qtrace.NumStages]time.Duration
}

func sumSpans(in []spanJSON) spanTotals {
	spans := make([]qtrace.Span, len(in))
	us := func(f float64) time.Duration { return time.Duration(f * float64(time.Microsecond)) }
	for i, s := range in {
		spans[i] = qtrace.Span{ID: s.ID, Parent: s.Parent, Name: s.Name, Start: us(s.StartUS), End: us(s.StartUS + s.DurUS), Attrs: s.Attrs}
	}
	return totals(spans)
}

// totals reduces a span tree. RPC attempt spans can overlap (one batch
// per shard group, hedges), so their wall time is the length of the union
// of their intervals; the kernel's own time excludes the part of that
// union inside the kernel span.
func totals(spans []qtrace.Span) spanTotals {
	t := spanTotals{seen: len(spans) > 0}
	var rpcs [][2]time.Duration
	var kernels [][2]time.Duration
	for _, s := range spans {
		switch {
		case s.Name == "admission":
			t.admission += s.End - s.Start
		case s.Name == "kernel":
			t.ran = true
			kernels = append(kernels, [2]time.Duration{s.Start, s.End})
			t.walks = attrInt(s.Attrs, "walks")
			t.work = attrInt(s.Attrs, "work")
		case strings.HasPrefix(s.Name, "rpc."):
			rpcs = append(rpcs, [2]time.Duration{s.Start, s.End})
		}
	}
	rpcs = union(rpcs)
	for _, r := range rpcs {
		t.rpc += r[1] - r[0]
	}
	for _, k := range kernels {
		t.kernel += k[1] - k[0]
		for _, r := range rpcs {
			if lo, hi := max(r[0], k[0]), min(r[1], k[1]); hi > lo {
				t.kernel -= hi - lo
			}
		}
	}
	return t
}

// union merges overlapping intervals.
func union(iv [][2]time.Duration) [][2]time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]time.Duration
	for _, x := range iv {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
			continue
		}
		out = append(out, x)
	}
	return out
}

// attrInt returns the last value of key in a "k=v,k=v" attribute list;
// the kernel span is annotated with the planned walks at start and the
// walks actually run at its end.
func attrInt(attrs, key string) int64 {
	var v int64
	for _, kv := range strings.Split(attrs, ",") {
		if k, val, ok := strings.Cut(kv, "="); ok && k == key {
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				v = n
			}
		}
	}
	return v
}
