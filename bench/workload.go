package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"probesim"
	"probesim/internal/graph"
	"probesim/internal/qtrace"
	"probesim/internal/xrand"
)

// workload is one traffic mix against one stack.
type workload struct {
	name string
	mix  mix
	k    int
	open func(path, dir string, l *ledger) (*stack, error)
}

// The workloads. README.md explains why each exists; BENCHMARK.json
// carries the same one-line reasons. Every workload is a closed loop with
// one caller (see load.go); the library stack takes no writes.
var workloads = []workload{
	// The paper's Fig. 4/5 setting: the facade alone.
	{name: "paper-topk", mix: mix{}, k: 50, open: openLibrary},
	// Hot-tier reads: the HTTP edge and top-k selection dominate. At
	// s = 1.6 about 95% of reads hit the tier, so the p90 is a hit and the
	// p99 a live miss, neither on the boundary between them.
	{name: "serve-hot", mix: mix{Zipf: 1.6}, k: 10, open: openSharded},
	// Live reads beside durable writes. At s = 1.1 few reads repeat
	// between two writes, so the result cache, emptied by every write,
	// serves too few of them to put a percentile on its boundary.
	{name: "serve-churn", mix: mix{WriteFrac: 0.10, Zipf: 1.1}, k: 10, open: openDurable},
	// The router, the wire codec and the view re-materialisation after
	// each write: the read after a write pays the cold view.
	{name: "routed-churn", mix: mix{WriteFrac: 0.03}, k: 10, open: openRouted},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    uint64
	seconds time.Duration // measured window
	traced  bool
	graph   string // edge-list file every set-up loads
	dir     string // scratch directory for data dirs
}

// warmup is the prefix of the op stream run before the measured window.
func (c runConfig) warmup() time.Duration { return c.seconds / 5 }

// run builds the workload's stack, plays its op stream, checks the
// answers and returns the metrics: end-to-end ones untraced, per-layer
// ones traced.
func run(c runConfig) (*result, error) {
	var l *ledger
	if c.traced {
		l = newLedger()
	}
	t0 := time.Now()
	st, err := c.w.open(c.graph, c.dir, l)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0)
	defer func() {
		if err := st.close(); err != nil {
			logf("tear-down: %v", err)
		}
	}()

	r := &runner{c: c, st: st, l: l, s: newStream(c.w.mix, c.seed, st.base)}
	if st.url != "" {
		r.load = newHTTPLoad(st.url, c.w.k)
		defer r.load.close()
		r.meta = newHTTPLoad(st.url, c.w.k)
		defer r.meta.close()
	}
	if err := r.window(); err != nil {
		return nil, err
	}
	if err := r.after(); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if c.traced {
		r.layers(res.Metrics)
	} else {
		r.endToEnd(res.Metrics, setup)
	}
	res.Attempted, res.Failed = r.tally.attempted, r.tally.failed
	res.Correct = r.tally.failed == 0
	return res, nil
}

// runner holds one run's state.
type runner struct {
	c          runConfig
	st         *stack
	l          *ledger
	s          *stream
	load, meta *httpLoad // serving stacks: op traffic, and /stats reads

	ops              []op
	recs             []record
	winStart, winEnd time.Duration
	s0, s1           procSample
	ticks            []cpuTick // process CPU through the window, every rssEvery
	rssMB, peakMB    float64   // median resident set over the window, and its high-water mark

	tally tally
}

// rssEvery is how often the resident set and the process CPU are sampled
// during the window.
const rssEvery = 100 * time.Millisecond

// cpuTick is the process CPU at one instant of the window.
type cpuTick struct{ at, cpu time.Duration }

// window plays the warm-up and the measured window, sampling process and
// program counters at both edges of the window and the resident set and
// process CPU through it.
func (r *runner) window() error {
	r.winStart = now() + r.c.warmup()
	r.winEnd = r.winStart + r.c.seconds
	sampled := make(chan error, 1)
	go func() {
		sampled <- r.sampleWindow()
	}()
	do := r.httpOp
	if r.st.g != nil {
		do = r.libraryOp
	}
	r.ops, r.recs = runClosed(r.winEnd, r.s.next, do)
	if err := <-sampled; err != nil {
		return fmt.Errorf("sampling the window: %w", err)
	}
	for i := range r.recs {
		r.tally.add(r.recs[i].ok)
	}
	return nil
}

// sampleWindow takes the window's samples; it returns after the window.
func (r *runner) sampleWindow() error {
	var err error
	time.Sleep(r.winStart - now())
	if r.s0, err = r.sample(); err != nil {
		return err
	}
	r.ticks = append(r.ticks, cpuTick{r.s0.at, r.s0.cpu})
	var rss []float64
	for t := now(); t < r.winEnd; t = now() {
		mb, err := residentMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
		r.ticks = append(r.ticks, cpuTick{now(), processCPU()})
		time.Sleep(min(rssEvery, r.winEnd-t))
	}
	if r.s1, err = r.sample(); err != nil {
		return err
	}
	r.ticks = append(r.ticks, cpuTick{r.s1.at, r.s1.cpu})
	r.rssMB = median(rss)
	r.peakMB, err = peakRSSMB()
	return err
}

// sample reads the process counters and, on serving stacks, the
// program's /stats and stage histograms plus the stores' own counters.
func (r *runner) sample() (procSample, error) {
	if r.meta == nil {
		return sampleProc(nil), nil
	}
	cs, err := r.meta.counters()
	if err != nil {
		return procSample{}, err
	}
	for _, st := range r.st.stores {
		ss, gc := st.Stats(), st.GC()
		cs["store.rebuilt"] += float64(ss.ShardsRebuilt)
		cs["store.reencoded"] += float64(ss.EdgesReEncoded)
		cs["store.retiredLive"] += float64(gc.RetiredLive)
	}
	return sampleProc(cs), nil
}

// traced reports whether op i of the window records the program's span
// tree: every other op in a traced run, so the untraced half measures
// the tracing overhead in the same run.
func (r *runner) traced(i int) bool { return r.c.traced && i%2 == 0 }

// keep reports whether op i keeps its answer for the correctness gate.
func (r *runner) keep(i int) bool { return r.c.w.mix.WriteFrac == 0 && i%checkEvery == 0 }

// libraryOp runs one paper-topk query through the probesim facade.
func (r *runner) libraryOp(i int, o op, rec *record) {
	ctx := context.Background()
	var tr *qtrace.Trace
	if r.traced(i) {
		tr = qtrace.New(qtrace.NewID())
		ctx = qtrace.NewContext(ctx, tr, 0)
	}
	res, err := probesim.TopK(ctx, r.st.g, graph.NodeID(o.U), r.c.w.k, queryOptions)
	rec.done = now()
	rec.ok = err == nil
	if err != nil {
		logf("paper-topk: source %d: %v", o.U, err)
	}
	if r.keep(i) {
		rec.answer = toScored(res)
	}
	if tr != nil {
		rec.spans = totals(tr.Snapshot())
		for st, tot := range tr.StageTotals() {
			rec.spans.stages[st] = time.Duration(tot.NS)
		}
	}
}

// httpOp runs op i of the window against a serving stack.
func (r *runner) httpOp(i int, o op, rec *record) {
	id := -1
	if r.c.traced {
		id = i
	}
	if o.Kind == opWrite {
		r.load.write(o, rec, id)
		return
	}
	extra := ""
	if r.traced(i) {
		extra = "&trace=1"
	}
	r.load.read(o, rec, id, extra, r.keep(i))
}

// after runs everything past the window: the sampled-answer check, the
// churn drain, and the final answer and accuracy gates.
func (r *runner) after() error {
	refGraph := r.st.g
	if refGraph == nil {
		var err error
		if refGraph, err = loadGraph(r.c.graph); err != nil {
			return err
		}
	}
	ref := newReference(refGraph, r.c.w.k)
	tol := servingTol
	if r.st.g != nil {
		tol = 0 // the facade and the executor must agree bit for bit
	}
	for i := range r.recs {
		if r.recs[i].answer == nil {
			continue
		}
		want, err := ref.topK(r.ops[i].U)
		if err != nil {
			return err
		}
		ok := sameTopK(r.recs[i].answer, want, tol)
		if !ok {
			logf("%s: answer of op %d (source %d) differs from the reference", r.c.w.name, i, r.ops[i].U)
		}
		r.tally.add(ok)
	}

	for _, o := range r.s.drain() {
		var rec record
		r.load.write(o, &rec, -1)
		r.tally.add(rec.ok)
	}

	edges, err := r.edges()
	if err != nil {
		return err
	}
	if edges != r.st.edges {
		logf("%s: %d edges after draining the churn, want %d", r.c.w.name, edges, r.st.edges)
	}
	r.tally.add(edges == r.st.edges)

	checks := newStream(mix{Zipf: r.c.w.mix.Zipf}, xrand.New(r.c.seed).SplitState(streamChecks), r.st.base)
	for j := 0; j < finalChecks; j++ {
		u := checks.source()
		want, err := ref.topK(u)
		if err != nil {
			return err
		}
		for _, extra := range r.finalVariants() {
			got, ok := r.answer(u, extra)
			ok = ok && sameTopK(got, want, tol)
			if !ok {
				logf("%s: final answer for source %d%s differs from the reference", r.c.w.name, u, extra)
			}
			r.tally.add(ok)
		}
	}
	return accuracyGate(r.c.seed, &r.tally)
}

// finalVariants are the query-string suffixes of the final check: the
// live kernel, and on hot-tier stacks also the default path, which must
// not serve an entry the churn should have invalidated.
func (r *runner) finalVariants() []string {
	if r.st.hot {
		return []string{"&tier=live", ""}
	}
	return []string{""}
}

func (r *runner) edges() (int64, error) {
	if r.st.g != nil {
		return r.st.g.NumEdges(), nil
	}
	cs, err := r.meta.counters()
	if err != nil {
		return 0, err
	}
	return int64(cs["edges"]), nil
}

// answer queries source u once more, outside any window.
func (r *runner) answer(u int32, extra string) ([]scored, bool) {
	if r.st.g != nil {
		res, err := probesim.TopK(context.Background(), r.st.g, graph.NodeID(u), r.c.w.k, queryOptions)
		return toScored(res), err == nil
	}
	var rec record
	r.meta.read(op{U: u}, &rec, -1, extra, true)
	return rec.answer, rec.ok
}

// inWindow reports whether rec started inside the measured window.
func (r *runner) inWindow(rec *record) bool { return rec.start >= r.winStart && rec.start < r.winEnd }

// latencies returns the latencies (ms) of the successful window ops of
// kind k that pass keep, in the order they ran.
func (r *runner) latencies(k opKind, keep func(i int) bool) []float64 {
	var out []float64
	for i := range r.recs {
		rec := &r.recs[i]
		if r.ops[i].Kind == k && rec.ok && r.inWindow(rec) && keep(i) {
			out = append(out, ms(rec.done-rec.start))
		}
	}
	return out
}

// completed counts the ops that finished in [from, to).
func (r *runner) completed(from, to time.Duration) int {
	c := 0
	for i := range r.recs {
		if d := r.recs[i].done; r.recs[i].ok && d >= from && d < to {
			c++
		}
	}
	return c
}

// sliceRates splits the window into maxSlices consecutive time slices,
// cut at the CPU samples nearest after each equal share of the window, and
// returns each slice's completed ops per second and process CPU
// milliseconds per completed op.
func (r *runner) sliceRates() (perSec, cpuPerOp []float64) {
	var edges []cpuTick
	for j := 0; j <= maxSlices; j++ {
		due := r.winStart + time.Duration(j)*r.c.seconds/maxSlices
		i := sort.Search(len(r.ticks), func(i int) bool { return r.ticks[i].at >= due })
		edges = append(edges, r.ticks[min(i, len(r.ticks)-1)])
	}
	for j := 1; j < len(edges); j++ {
		a, b := edges[j-1], edges[j]
		if b.at <= a.at {
			continue
		}
		done := float64(r.completed(a.at, b.at))
		perSec = append(perSec, done/(b.at-a.at).Seconds())
		if done > 0 {
			cpuPerOp = append(cpuPerOp, ms(b.cpu-a.cpu)/done)
		}
	}
	return perSec, cpuPerOp
}

// endToEnd fills the end-to-end metrics. The latency and the CPU cost are
// medians over slices of the window, so contention from other tenants of
// the host confined to a few seconds cannot move them. A median without
// enough reads is left out, which the parent reports as an error.
func (r *runner) endToEnd(m map[string]metric, setup time.Duration) {
	reads := r.latencies(opRead, func(int) bool { return true })
	if v, ok := slicedPercentile(reads, 50); ok {
		m["read_p50_ms"] = metric{v, "ms"}
	} else {
		logf("read_p50_ms: %d reads are too few; not reported", len(reads))
	}
	_, cpuPerOp := r.sliceRates()
	m["setup_s"] = metric{setup.Seconds(), "s"}
	m["cpu_ms_per_op"] = metric{median(cpuPerOp), "ms"}
	m["rss_mb"] = metric{r.rssMB, "MB"}
}
