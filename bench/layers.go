package main

import "probesim/internal/qtrace"

// layers fills the per-layer metrics of a traced run. A layer a workload
// does not run reads 0.
func (r *runner) layers(m map[string]metric) {
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(key string) float64 { return r.s1.counters[key] - r.s0.counters[key] }
	secs := r.c.seconds.Seconds()
	library := r.st.g != nil

	// The ledger: mean client latency of the traced window reads, split
	// into the parts measured around and inside the server.
	var client, wire, adm, kern, rpc, rest []float64
	var walks, work, walkCPU, probeCPU []float64
	reads := 0
	for i := range r.recs {
		rec := &r.recs[i]
		if r.ops[i].Kind != opRead || !rec.ok || !r.inWindow(rec) {
			continue
		}
		reads++
		if !r.traced(i) {
			continue
		}
		c := rec.done - rec.start
		client = append(client, ms(c))
		sp := rec.spans
		if sp.ran {
			walks = append(walks, float64(sp.walks))
			work = append(work, float64(sp.work))
		}
		if library {
			kern = append(kern, ms(sp.kernel))
			rest = append(rest, ms(c-sp.kernel))
			walkCPU = append(walkCPU, ms(sp.stages[qtrace.StageWalk]))
			probeCPU = append(probeCPU, ms(sp.stages[qtrace.StageProbe]))
			continue
		}
		mk, ok := r.l.mark(i)
		if !ok || !sp.seen {
			continue
		}
		wire = append(wire, ms(mk.in-rec.start+rec.done-mk.out))
		adm = append(adm, ms(sp.admission))
		kern = append(kern, ms(sp.kernel))
		rpc = append(rpc, ms(sp.rpc))
		rest = append(rest, ms(mk.out-mk.in-sp.admission-sp.kernel-sp.rpc))
	}
	sum := 0.0
	for _, p := range []struct {
		name string
		v    []float64
	}{
		{"ledger.wire_ms", wire}, {"ledger.admission_ms", adm},
		{"ledger.kernel_ms", kern}, {"ledger.rpc_ms", rpc}, {"ledger.handler_rest_ms", rest},
	} {
		v := mean(p.v)
		sum += v
		put(p.name, "ms", v)
	}
	put("ledger.client_ms", "ms", mean(client))
	put("ledger.residual_ms", "ms", mean(client)-sum)

	plain := r.latencies(opRead, func(i int) bool { return !r.traced(i) })
	tracedP50, _ := slicedPercentile(r.latencies(opRead, r.traced), 50)
	plainP50, _ := slicedPercentile(plain, 50)
	put("trace.overhead_frac", "ratio", ratio(tracedP50, plainP50)-1)
	// The read tail and the caller's throughput are reported here, not end
	// to end: while the hypervisor steals CPU from this machine they move
	// by up to 3x from run to run, past any bound of 25% or less.
	readP90, _ := slicedPercentile(plain, 90)
	readP99, _ := slicedPercentile(plain, 99)
	perSec, _ := r.sliceRates()
	put("read.p90_ms", "ms", readP90)
	put("read.p99_ms", "ms", readP99)
	put("load.ops_per_s", "ops/s", median(perSec))
	put("host.steal_frac", "ratio", ratio(r.s1.steal-r.s0.steal, r.s1.hostCPU-r.s0.hostCPU))

	done := float64(r.completed(r.winStart, r.winEnd))
	allocKB := (r.s1.alloc - r.s0.alloc) / 1024
	if library {
		put("facade.overhead_ms", "ms", mean(rest))
		put("facade.alloc_kb_per_query", "KiB", ratio(allocKB, done))
		put("kernel.walk_cpu_ms", "ms", mean(walkCPU))
		put("kernel.probe_cpu_ms", "ms", mean(probeCPU))
	} else {
		put("facade.overhead_ms", "ms", 0)
		put("facade.alloc_kb_per_query", "KiB", 0)
		put("kernel.walk_cpu_ms", "ms", 1000*ratio(delta("probesim_trace_walk_seconds_sum"), delta("probesim_trace_walk_seconds_count")))
		put("kernel.probe_cpu_ms", "ms", 1000*ratio(delta("probesim_trace_probe_seconds_sum"), delta("probesim_trace_probe_seconds_count")))
	}
	put("kernel.walks_per_query", "count", mean(walks))
	put("kernel.probe_work_per_query", "count", mean(work))

	var writeIDs []int
	for i := range r.recs {
		if r.ops[i].Kind == opWrite && r.recs[i].ok && r.inWindow(&r.recs[i]) {
			writeIDs = append(writeIDs, i)
		}
	}
	windowWrites := float64(len(writeIDs))
	hits, misses := delta("hotHits"), delta("hotMisses")
	put("hot.hit_frac", "ratio", ratio(hits, hits+misses))
	put("hot.builds_per_s", "1/s", delta("hotBuilds")/secs)
	put("hot.failed_build_frac", "ratio", ratio(delta("hotBuildErrors"), delta("hotBuilds")))

	hits, misses = delta("cacheHits"), delta("cacheMisses")
	put("cache.hit_frac", "ratio", ratio(hits, hits+misses))
	put("cache.evictions_per_s", "1/s", delta("cacheEvictions")/secs)

	put("store.shards_rebuilt_per_write", "count", ratio(delta("store.rebuilt"), windowWrites))
	put("store.edges_reencoded_per_write", "count", ratio(delta("store.reencoded"), windowWrites))
	put("store.retired_live", "count", r.s1.counters["store.retiredLive"])

	put("wal.syncs_per_write", "count", ratio(delta("walSyncs"), windowWrites))
	put("wal.bytes_per_write", "B", ratio(delta("walAppendedBytes"), windowWrites))
	put("wal.checkpoints", "count", delta("walCheckpoints"))

	writes := r.latencies(opWrite, func(int) bool { return true })
	p50, _ := slicedPercentile(writes, 50)
	p90, _ := slicedPercentile(writes, 90)
	put("write.p50_ms", "ms", p50)
	put("write.p90_ms", "ms", p90)
	var toDurable, apply, publish []float64
	for _, i := range writeIDs {
		if mk, ok := r.l.mark(i); ok {
			if d, a, p, ok := r.l.writeSplit(r.ops[i], mk); ok {
				toDurable = append(toDurable, ms(d))
				apply = append(apply, ms(a))
				publish = append(publish, ms(p))
			}
		}
	}
	put("write.to_durable_ms", "ms", mean(toDurable))
	put("write.apply_ms", "ms", mean(apply))
	put("write.publish_ms", "ms", mean(publish))

	local, delegated := delta("routerWalkLocalSegments"), delta("routerWalkDelegated")
	put("router.shard_batches_per_write", "count", ratio(delta("routerShardBatches"), windowWrites))
	put("router.walk_batches_per_query", "count", ratio(delta("routerWalkBatches"), float64(reads)))
	put("router.local_segment_frac", "ratio", ratio(local, local+delegated))

	put("go.gc_cpu_frac", "ratio", ratio(r.s1.gcCPU-r.s0.gcCPU, r.s1.totalCPU-r.s0.totalCPU))
	put("go.peak_rss_mb", "MB", r.peakMB)
	put("go.alloc_kb_per_op", "KiB", ratio(allocKB, done))
}

// layerNames lists every per-layer metric in report order.
var layerNames = []string{
	"ledger.client_ms", "ledger.wire_ms", "ledger.admission_ms",
	"ledger.kernel_ms", "ledger.rpc_ms", "ledger.handler_rest_ms", "ledger.residual_ms",
	"trace.overhead_frac", "read.p90_ms", "read.p99_ms", "load.ops_per_s", "host.steal_frac",
	"facade.overhead_ms", "facade.alloc_kb_per_query",
	"kernel.walk_cpu_ms", "kernel.probe_cpu_ms", "kernel.walks_per_query", "kernel.probe_work_per_query",
	"hot.hit_frac", "hot.builds_per_s", "hot.failed_build_frac",
	"cache.hit_frac", "cache.evictions_per_s",
	"store.shards_rebuilt_per_write", "store.edges_reencoded_per_write", "store.retired_live",
	"wal.syncs_per_write", "wal.bytes_per_write", "wal.checkpoints",
	"write.p50_ms", "write.p90_ms", "write.to_durable_ms", "write.apply_ms", "write.publish_ms",
	"router.shard_batches_per_write", "router.walk_batches_per_query", "router.local_segment_frac",
	"go.gc_cpu_frac", "go.alloc_kb_per_op", "go.peak_rss_mb",
}

// endToEndNames lists every end-to-end metric in report order.
var endToEndNames = []string{
	"setup_s", "read_p50_ms", "cpu_ms_per_op", "rss_mb",
}
