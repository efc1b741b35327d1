package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/systems/csq"
)

// workload is one traffic mix against one engine configuration. Why
// each exists is in README.md and BENCHMARK.json.
type workload struct {
	name string
	// readers closed-loop clients run the 14 templates in rounds;
	// adhoc redraws their constants per request.
	readers int
	adhoc   bool
	// writers open-loop writers each commit rate batches per second of
	// sliceSize triples.
	writers   int
	rate      float64
	durable   bool
	planCache int
	resCache  int64
	// tailPct is the latency percentile reported as the tail: one
	// with at least ten samples beyond it at this load that falls
	// inside one population of requests, not on the edge between two.
	tailPct float64
}

const (
	sliceSize = 200 // triples per write batch
	perWriter = 4   // slices each writer cycles over
	window    = 14  // reads per client whose exact counts are reported
)

var workloads = []workload{
	{name: "read-hot", readers: 2, tailPct: 98},
	{name: "read-adhoc", readers: 2, adhoc: true, planCache: -1, resCache: 64 << 20, tailPct: 95},
	{name: "churn", readers: 1, writers: 1, rate: 10, tailPct: 95},
	{name: "durable-ingest", writers: 2, rate: 6, durable: true, tailPct: 90},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clients is the number of load-generating goroutines.
func (w workload) clients() int { return w.readers + w.writers }

// period is the interval between one writer's batches.
func (w workload) period() time.Duration { return time.Duration(float64(time.Second) / w.rate) }

// batches is how many batches each writer commits in a run.
func (w workload) batches(seconds time.Duration) int {
	return int(w.rate*seconds.Seconds() + 0.5)
}

// config is one run's parameters.
type config struct {
	seed    int64
	seconds time.Duration
	univ    int
	setups  int    // set-ups timed for setup_s
	scratch string // directory for write-ahead logs
}

// readResult is one read as a client saw it.
type readResult struct {
	seq, tmpl  int
	src        string
	start, lat time.Duration // start is since the timed phase began
	ans        answer
	stale      uint64 // epochs committed after the answer's epoch
	err        error
}

// commitResult is one scheduled batch. Latency runs from the time the
// batch was due, so a stall also counts against the batches queued
// behind it; lag is how late the writer issued it.
type commitResult struct {
	writer, i     int
	due, lag, lat time.Duration
	service       time.Duration
	res           csq.BatchResult
	err           error
}

// phase is one engine, set up, loaded for the run's duration and
// checked.
type phase struct {
	w        workload
	cfg      config
	plan     writerPlan
	traced   bool
	triples  int
	setups   []time.Duration
	warm     []readResult
	reads    []readResult
	commits  []commitResult
	elapsed  time.Duration
	st0, st1 engineStats
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	heapLive []float64 // MB, sampled through the timed phase
	steal    float64   // share of the machine's CPU time stolen by its host, -1 if unknown
	// final is the answer pass after the load: churn's fresh-engine
	// equivalence check, durable-ingest's pre-crash answers.
	final []readResult
	// reopened are durable-ingest's answers after Open.
	reopened            []readResult
	recovery            time.Duration
	preCrash, postCrash uint64
	tracers             []*tracer
	warmTracer          *tracer
	failures            []string
}

// closedLoop runs op for seq = 0, 1, ... until at least minOps have run
// and deadline has passed since start.
func closedLoop(start time.Time, deadline time.Duration, minOps int, op func(seq int) readResult) []readResult {
	var out []readResult
	for seq := 0; seq < minOps || time.Since(start) < deadline; seq++ {
		out = append(out, op(seq))
	}
	return out
}

// openLoop issues n operations, the i-th at start+due(i) or as soon as
// the previous one returns, whichever is later, and times each from
// its due time.
func openLoop(start time.Time, n int, due func(i int) time.Duration, op func(i int) (csq.BatchResult, error)) []commitResult {
	out := make([]commitResult, 0, n)
	for i := 0; i < n; i++ {
		d := due(i)
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		issued := time.Since(start)
		res, err := op(i)
		done := time.Since(start)
		out = append(out, commitResult{i: i, due: d, lag: issued - d, lat: done - d, service: done - issued, res: res, err: err})
	}
	return out
}

// runPhase sets the engine up cfg.setups times (keeping the last),
// drives the workload for cfg.seconds and runs the end-of-run passes.
// Answers are checked afterwards by verify.
func runPhase(w workload, cfg config, traced bool) (*phase, error) {
	p := &phase{w: w, cfg: cfg, traced: traced}
	tpl := lubmTemplates()
	g := lubm.Generate(lubm.DefaultConfig(cfg.univ))
	p.triples = g.Len()
	plan := newWriterPlan(g, cfg.seed, w.writers, perWriter, sliceSize)
	p.plan = plan
	epoch := time.Now()

	sp := spec{planCache: w.planCache, resCache: w.resCache}
	var d db
	// Whatever engine and log directory are current when runPhase
	// returns, on success or not, are released here.
	defer func() {
		if d != nil {
			d.close()
		}
		if sp.walDir != "" {
			os.RemoveAll(sp.walDir)
		}
	}()
	for k := 0; k < cfg.setups; k++ {
		if d != nil {
			d.close()
			d = nil
			if sp.walDir != "" {
				os.RemoveAll(sp.walDir)
			}
		}
		if w.durable {
			dir, err := os.MkdirTemp(cfg.scratch, "wal-")
			if err != nil {
				return nil, err
			}
			sp.walDir = dir
		}
		var tr *tracer
		if traced && k == cfg.setups-1 {
			tr = newTracer(epoch, 0)
			p.warmTracer = tr
		}
		t0 := time.Now()
		var err error
		if d, err = openDB(traced, g, sp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.warm = pass(d, tpl, tr)
		p.setups = append(p.setups, time.Since(t0))
	}
	digestAll(p.warm)

	p.st0 = d.stats()
	runtime.ReadMemStats(&p.mem0)
	cpu0 := readCPUStat()
	stopHeap, heapDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(heapDone)
		p.heapLive = sampleHeapLive(stopHeap)
	}()
	start := time.Now()
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for c := 0; c < w.readers; c++ {
		var tr *tracer
		if traced {
			tr = newTracer(epoch, 1+c)
			p.tracers = append(p.tracers, tr)
		}
		// Each client runs the templates in rounds, each round in an
		// order drawn from its own seeded generator: a fixed order
		// would lock the clients into one phase relation for the whole
		// run, and which one they fall into moved throughput by 20%.
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
		var round []int
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := closedLoop(start, cfg.seconds, window, func(seq int) readResult {
				if seq%len(tpl.srcs) == 0 {
					round = rng.Perm(len(tpl.srcs))
				}
				i := round[seq%len(tpl.srcs)]
				r := readResult{seq: seq, tmpl: i, src: tpl.srcs[i]}
				if w.adhoc {
					r.src = tpl.instance(i, rng, cfg.univ)
				}
				r.start = time.Since(start)
				r.ans, r.err = d.query(tpl.names[i], r.src, tr)
				r.lat = time.Since(start) - r.start
				if r.err == nil {
					r.stale = d.dataVersion() - r.ans.version
				}
				r.ans.dig, r.ans.rows = digestRows(r.ans.rows), nil
				return r
			})
			mu.Lock()
			p.reads = append(p.reads, rs...)
			mu.Unlock()
		}()
	}
	n := w.batches(cfg.seconds)
	for wr := 0; wr < w.writers; wr++ {
		var tr *tracer
		if traced {
			tr = newTracer(epoch, 1+w.readers+wr)
			p.tracers = append(p.tracers, tr)
		}
		period := w.period()
		// Writers are spread evenly over the period.
		phaseOff := period * time.Duration(2*wr+1) / time.Duration(2*w.writers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := openLoop(start, n, func(i int) time.Duration { return time.Duration(i)*period + phaseOff },
				func(i int) (csq.BatchResult, error) { return d.apply(plan.batch(wr, i), tr) })
			mu.Lock()
			for i := range cs {
				cs[i].writer = wr
			}
			p.commits = append(p.commits, cs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(stopHeap)
	<-heapDone
	p.steal = stealFrac(cpu0, readCPUStat())
	// The timed phase ends with the last foreground operation.
	for _, r := range p.reads {
		p.elapsed = max(p.elapsed, r.start+r.lat)
	}
	if w.readers == 0 {
		for _, c := range p.commits {
			p.elapsed = max(p.elapsed, c.due+c.lat)
		}
	}
	p.st1 = d.stats()
	runtime.ReadMemStats(&p.mem1)

	if w.writers > 0 {
		p.final = digestAll(pass(d, tpl, nil))
	}
	if w.durable {
		// Abandon the engine without Close, as a crash would, and
		// recover it from its log.
		p.preCrash = d.dataVersion()
		t0 := time.Now()
		d2, err := reopenDB(traced, sp)
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		p.recovery = time.Since(t0)
		p.postCrash = d2.dataVersion()
		p.reopened = digestAll(pass(d2, tpl, nil))
		d2.close()
	}
	return p, nil
}

// pass answers the 14 templates once each.
func pass(d db, tpl templates, tr *tracer) []readResult {
	out := make([]readResult, len(tpl.srcs))
	for i, src := range tpl.srcs {
		out[i] = readResult{tmpl: i, src: src}
		out[i].ans, out[i].err = d.query(tpl.names[i], src, tr)
	}
	return out
}

// digestAll replaces the rows of each answer by their digest.
func digestAll(rs []readResult) []readResult {
	for i := range rs {
		rs[i].ans.dig, rs[i].ans.rows = digestRows(rs[i].ans.rows), nil
	}
	return rs
}

// verify checks every answer of the phase against references computed
// now, after the timed phase, and returns the number of operations
// checked and the number that failed or were wrong. Failures are
// recorded in p.failures.
func (p *phase) verify() (attempted, failed int) {
	plan := p.plan
	// Each read's data state follows from its epoch: with one writer,
	// epoch v means v-1 batches committed.
	refs := make(map[string]map[string]refAnswer)
	want := make(map[string][]int)
	srcs := make(map[string]map[string]bool)
	need := func(slices []int, src string) string {
		k := stateKey(slices)
		want[k] = slices
		if srcs[k] == nil {
			srcs[k] = make(map[string]bool)
		}
		srcs[k][src] = true
		return k
	}
	type job struct {
		r     *readResult
		state string
	}
	var jobs []job
	base := p.warm[0].ans.version
	done := make([]int, p.w.writers)
	for i := range p.warm {
		jobs = append(jobs, job{&p.warm[i], need(nil, p.warm[i].src)})
	}
	for i := range p.reads {
		r := &p.reads[i]
		var slices []int
		if p.w.writers == 1 && r.err == nil {
			slices = plan.deleted([]int{int(r.ans.version - base)})
		}
		jobs = append(jobs, job{r, need(slices, r.src)})
	}
	for _, c := range p.commits {
		if c.err == nil {
			done[c.writer]++
		}
	}
	for _, rs := range [][]readResult{p.final, p.reopened} {
		for i := range rs {
			jobs = append(jobs, job{&rs[i], need(plan.deleted(done), rs[i].src)})
		}
	}
	for k, slices := range want {
		list := make([]string, 0, len(srcs[k]))
		for s := range srcs[k] {
			list = append(list, s)
		}
		ref, err := reference(p.cfg.univ, plan.removed(slices), list)
		if err != nil {
			p.failf("%v", err)
			return len(jobs) + len(p.commits), len(jobs) + len(p.commits)
		}
		refs[k] = ref
	}
	for _, j := range jobs {
		attempted++
		err := j.r.err
		if err == nil {
			ref, ok := refs[j.state][j.r.src]
			err = compare(j.r.ans, ref, ok)
		}
		if err != nil {
			failed++
			p.failf("%s (state %s): %v", tplNames[j.r.tmpl], j.state, err)
		}
	}
	for _, c := range p.commits {
		attempted++
		if c.err != nil {
			failed++
			p.failf("batch %d of writer %d: %v", c.i, c.writer, c.err)
		}
	}
	if p.w.durable {
		attempted++
		if p.postCrash != p.preCrash {
			failed++
			p.failf("reopened at epoch %d, want %d", p.postCrash, p.preCrash)
		}
	}
	if p.traced {
		attempted++
		if err := checkSpans(allSpans(append(p.tracers, p.warmTracer)...)); err != nil {
			failed++
			p.failf("trace: %v", err)
		}
	}
	return attempted, failed
}

func (p *phase) failf(format string, args ...any) {
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

var tplNames = lubmTemplates().names

// sampleHeapLive reads the live heap the runtime measured at its most
// recent garbage collection every 20ms until stop is closed, and
// returns the samples in MB.
func sampleHeapLive(stop <-chan struct{}) []float64 {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			rtmetrics.Read(sample)
			out = append(out, float64(sample[0].Value.Uint64())/(1<<20))
		}
	}
}

// readCPUStat returns the machine-wide CPU time counters of
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal,
// ...), or nil where there is no such file.
func readCPUStat() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]uint64, len(f)-1)
	for i, x := range f[1:] {
		out[i], _ = strconv.ParseUint(x, 10, 64)
	}
	return out
}

// stealFrac is the share of CPU time a virtual machine's host took
// between two readings: time the benchmark could not run at all.
func stealFrac(a, b []uint64) float64 {
	if a == nil || b == nil || len(a) != len(b) {
		return -1
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(float64(b[7]-a[7]), float64(total))
}
