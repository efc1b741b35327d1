package main

import (
	"fmt"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// primary is the latency in ms of each foreground operation: the reads
// where the workload has readers, its commits otherwise.
func (p *phase) primary() []float64 {
	var out []float64
	for _, ops := range p.primaryByType() {
		out = append(out, ops...)
	}
	return out
}

// primaryByType groups the foreground latencies by operation type: the
// query template of a read; all commits are one type.
func (p *phase) primaryByType() map[int][]float64 {
	out := make(map[int][]float64)
	if p.w.readers > 0 {
		for _, r := range p.reads {
			out[r.tmpl] = append(out[r.tmpl], ms(r.lat))
		}
		return out
	}
	for _, c := range p.commits {
		out[-1] = append(out[-1], ms(c.lat))
	}
	return out
}

// endToEnd is what a user of the engine sees on an untraced run.
func endToEnd(p *phase) metrics {
	lat := p.primary()
	m := metrics{}
	m.put("ops_per_s", float64(len(lat))/p.elapsed.Seconds(), "1/s")
	// The median over operation types of each type's median latency:
	// the median of the whole mix sits exactly on the edge between the
	// 7th and 8th of the 14 equally frequent query templates and jumped
	// between them from run to run, and a geometric mean of the type
	// medians was swayed by the sub-millisecond queries, whose latency
	// is mostly waiting for a core.
	var meds []float64
	for _, ops := range p.primaryByType() {
		meds = append(meds, median(ops))
	}
	sort.Float64s(meds)
	mid := meds[len(meds)/2]
	if len(meds)%2 == 0 {
		mid = (meds[len(meds)/2-1] + mid) / 2
	}
	m.put("median_p50_ms", mid, "ms")
	m.put("tail_ms", percentile(lat, p.w.tailPct), "ms")
	var setups []float64
	for _, d := range p.setups {
		setups = append(setups, d.Seconds())
	}
	m.put("setup_s", median(setups), "s")
	m.put("heap_live_mb", median(p.heapLive), "MB")
	return m
}

// spanNames are the span names the layered path records.
var spanNames = []string{"request", "sparql.parse", "sparql.canon", "plancache", "plan.revalidate", "optimizer", "exec", "decode", "write", "commit"}

// perLayer reads the traced phase pt; the untraced phase pu of the
// same run gives the tracing overhead.
func perLayer(pu, pt *phase) metrics {
	m := metrics{}
	timed := allSpans(pt.tracers...)
	self := selfTimes(timed)
	byName := make(map[string][]float64)
	byQuery := make(map[string][]float64) // name + "/" + query
	total := make(map[string]time.Duration)
	for _, s := range timed {
		d := self[s.ID]
		total[s.Name] += d
		byName[s.Name] = append(byName[s.Name], ms(d))
		byQuery[s.Name+"/"+s.Query] = append(byQuery[s.Name+"/"+s.Query], ms(d))
	}
	for _, s := range pt.warmTracer.spans {
		if s.Name == "optimizer" {
			byQuery["optimizer/"+s.Query] = append(byQuery["optimizer/"+s.Query], ms(s.dur()))
		}
	}

	m.put("sparql.parse_us", 1000*median(byName["sparql.parse"]), "us")
	m.put("sparql.canon_us", 1000*median(byName["sparql.canon"]), "us")

	plan := pt.st1.plan
	hits, misses := plan.Hits-pt.st0.plan.Hits, plan.Misses-pt.st0.plan.Misses
	m.put("plancache.hit_us", 1000*median(byName["plancache"]), "us")
	m.put("plancache.probes", float64(hits+misses), "count")
	m.put("plancache.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.put("plan.revalidations", float64(pt.st1.upd.Revalidations-pt.st0.upd.Revalidations), "count")
	m.put("plan.replans", float64(pt.st1.upd.Replans-pt.st0.upd.Replans), "count")
	m.put("plan.revalidate_ms", median(byName["plan.revalidate"]), "ms")

	for _, q := range tplNames {
		m.put("optimizer.prepare_ms."+q, median(byQuery["optimizer/"+q]), "ms")
		m.put("exec."+q+".p50_ms", median(byQuery["exec/"+q]), "ms")
		m.put("decode."+q+".p50_ms", median(byQuery["decode/"+q]), "ms")
	}
	var work counts
	plans := 0
	for _, r := range pt.windowReads() {
		work.add(r.ans.counts)
		if !r.ans.cached {
			plans += r.ans.plans
		}
	}
	for _, r := range pt.warm {
		if !r.ans.cached {
			plans += r.ans.plans
		}
	}
	m.put("optimizer.plans_explored", float64(plans), "count")
	m.put("exec.jobs", float64(work.Jobs), "count")
	m.put("exec.shuffled_records", float64(work.Shuffled), "count")
	m.put("exec.shuffled_cells", float64(work.ShuffledCells), "count")
	m.put("exec.output_rows", float64(work.OutputRows), "count")
	m.put("decode.cells", float64(work.Cells), "count")
	reads := float64(len(pt.reads))
	m.put("exec.alloc_kb_per_query", ratio(float64(pt.mem1.TotalAlloc-pt.mem0.TotalAlloc)/1024, reads), "KB")
	m.put("gc.cycles_per_1k_reads", ratio(1000*float64(pt.mem1.NumGC-pt.mem0.NumGC), reads), "count")
	e, d := m["exec.Q1.p50_ms"].Value, m["decode.Q1.p50_ms"].Value
	m.put("decode.share.Q1", ratio(d, e+d), "ratio")

	res := pt.st1.res
	rhits, rmisses := res.Hits-pt.st0.res.Hits, res.Misses-pt.st0.res.Misses
	m.put("rescache.probes", float64(rhits+rmisses), "count")
	m.put("rescache.hit_ratio", ratio(float64(rhits), float64(rhits+rmisses)), "ratio")
	m.put("rescache.bytes_resident", float64(res.Bytes), "bytes")
	m.put("rescache.evicted_bytes", float64(res.EvictedBytes-pt.st0.res.EvictedBytes), "bytes")

	var lat, lag, apply, wait, appendT, syncT []float64
	effective := 0
	for _, c := range pt.commits {
		lat = append(lat, ms(c.lat))
		lag = append(lag, ms(c.lag))
		wait = append(wait, ms(c.res.Commit.Wait))
		appendT = append(appendT, ms(c.res.Commit.Append))
		syncT = append(syncT, ms(c.res.Commit.Sync))
		if pt.w.durable {
			apply = append(apply, ms(c.res.Commit.Apply))
		}
		effective += c.res.Inserted + c.res.Deleted
	}
	if !pt.w.durable {
		apply = byName["commit"]
	}
	m.put("commit.apply_ms", median(apply), "ms")
	m.put("commit.effective_triples", float64(effective), "count")
	m.put("commit.p50_ms", median(lat), "ms")
	m.put("commit.p90_ms", percentile(lat, 90), "ms")
	m.put("write.lag_ms", percentile(lag, 90), "ms")
	var stale []float64
	for _, r := range pt.reads {
		stale = append(stale, float64(r.stale))
	}
	m.put("read.staleness_epochs", mean(stale), "epochs")
	m.put("commit.wait_ms", median(wait), "ms")
	m.put("commit.append_ms", median(appendT), "ms")
	m.put("commit.sync_ms", median(syncT), "ms")

	d0, d1 := pt.st0.dur, pt.st1.dur
	groups := d1.Groups - d0.Groups
	m.put("wal.groups", float64(groups), "count")
	m.put("wal.group_size_mean", ratio(float64(d1.GroupedCallers-d0.GroupedCallers), float64(groups)), "ratio")
	m.put("wal.syncs", float64(d1.Log.Syncs-d0.Log.Syncs), "count")
	m.put("wal.appended_bytes", float64(d1.Log.AppendedBytes-d0.Log.AppendedBytes), "bytes")
	m.put("wal.checkpoints", float64(d1.Log.Checkpoints-d0.Log.Checkpoints), "count")
	m.put("wal.checkpoint_bytes", float64(d1.Log.CheckpointBytes-d0.Log.CheckpointBytes), "bytes")
	m.put("wal.live_bytes", float64(d1.LiveBytes), "bytes")
	written := float64(d1.Log.AppendedBytes - d0.Log.AppendedBytes + d1.Log.CheckpointBytes - d0.Log.CheckpointBytes)
	m.put("wal.write_amp", ratio(written, 12*float64(effective)), "ratio")
	m.put("wal.recovery_s", pt.recovery.Seconds(), "s")

	mu, mt := mean(pu.primary()), mean(pt.primary())
	m.put("trace.overhead_frac", ratio(mt-mu, mu), "ratio")
	m.put("trace.spans", float64(len(timed)), "count")
	ops := float64(len(pt.primary()))
	for _, n := range spanNames {
		m.put("self_ms."+n, ratio(ms(total[n]), ops), "ms")
	}
	return m
}

// windowReads are the reads whose work counts are reported: each
// client's first window reads on the read-only workloads, where every
// answer is fixed by the seed, and the end-of-run passes on the
// workloads that write, whose answers during the run depend on timing.
func (p *phase) windowReads() []readResult {
	if p.w.writers > 0 {
		return append(append([]readResult(nil), p.final...), p.reopened...)
	}
	var out []readResult
	for _, r := range p.reads {
		if r.seq < window {
			out = append(out, r)
		}
	}
	return out
}

// invalid lists why a phase's figures cannot stand: more client
// goroutines than cores, a writer that fell behind its schedule, or a
// tail percentile without ten samples beyond it.
func (p *phase) invalid(cores int) []string {
	var out []string
	if p.w.clients() > cores {
		out = append(out, fmt.Sprintf("%d client goroutines on %d cores", p.w.clients(), cores))
	}
	if p.w.writers > 0 {
		period := p.w.period()
		lags := make([][]float64, p.w.writers)
		for _, c := range p.commits {
			lags[c.writer] = append(lags[c.writer], ms(c.lag))
		}
		for w, l := range lags {
			if lag := percentile(l, 90); lag > ms(period) {
				out = append(out, fmt.Sprintf("writer %d ran behind its schedule: p90 lag %.1f ms over a %.1f ms period", w, lag, ms(period)))
			}
		}
	}
	if n := len(p.primary()); !tailSupported(n, p.w.tailPct) {
		out = append(out, fmt.Sprintf("p%g of %d samples has fewer than 10 beyond it", p.w.tailPct, n))
	}
	return out
}
