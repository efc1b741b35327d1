// Command perfbench is the repository's benchmark. It loads LUBM,
// drives one named workload against the cliquesquare engine for a fixed
// time, checks every answer against references computed outside the
// timed phase, and prints one JSON result line: end-to-end metrics on
// an untraced run, or per-layer metrics on a traced one.
//
//	perfbench --workload read-hot --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	universities = 64 // LUBM scale: 101,740 triples
	setups       = 5  // set-ups timed on an untraced run; setup_s is their median
)

// environment describes the machine and settings a report came from.
type environment struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Traced       bool     `json:"traced"`
	Universities int      `json:"universities"`
	Triples      int      `json:"triples"`
	Clients      int      `json:"clients"`
	Cores        int      `json:"cores"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	GOGC         string   `json:"gogc"`
	Commit       string   `json:"commit"`
	TailPct      float64  `json:"tail_percentile"`
	StealFrac    float64  `json:"steal_frac"`
	CalibrateMs  float64  `json:"cpu_calibration_ms"`
	ErrorRate    float64  `json:"error_rate"`
	Valid        bool     `json:"valid"`
	Invalid      []string `json:"invalid,omitempty"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: read-hot, read-adhoc, churn or durable-ingest")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for write-ahead logs, reports and spans")
	commit := fs.String("commit", "unknown", "source revision recorded in the environment block")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		univ:    universities,
		setups:  setups,
		scratch: *out,
	}
	rep, err := measure(w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.Env.Commit = *commit
	for _, f := range rep.Failures {
		fmt.Fprintln(stderr, "perfbench: wrong:", f)
	}
	for _, r := range rep.Env.Invalid {
		fmt.Fprintln(stderr, "perfbench: invalid run:", r)
	}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if rep.spans != nil {
		if err := writeSpans(base+".spans.jsonl", rep.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	js, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(base+".json", append(js, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	envLine, _ := json.Marshal(map[string]environment{"env": rep.Env})
	resLine, _ := json.Marshal(rep.Result)
	fmt.Fprintf(stdout, "%s\n%s\n", envLine, resLine)
	return 0
}

// report is everything one run found; it is also written to a file.
type report struct {
	Env      environment `json:"env"`
	Result   result      `json:"result"`
	Failures []string    `json:"failures,omitempty"`
	spans    []span      // traced runs only
}

// measure runs the workload once untraced, or on a traced run once
// untraced and once traced, verifies every phase and computes the
// metrics.
func measure(w workload, cfg config, traced bool) (*report, error) {
	env := environment{
		Workload:     w.name,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds.Seconds(),
		Traced:       traced,
		Universities: cfg.univ,
		Clients:      w.clients(),
		Cores:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOGC:         os.Getenv("GOGC"),
		TailPct:      w.tailPct,
		CalibrateMs:  ms(calibrate()),
	}
	if env.GOGC == "" {
		env.GOGC = "default"
	}
	layers := []bool{false}
	if traced {
		layers = []bool{false, true}
		cfg.setups = 1
	}
	var phases []*phase
	for _, layered := range layers {
		p, err := runPhase(w, cfg, layered)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	}
	rep := &report{Env: env}
	for _, p := range phases {
		a, f := p.verify()
		rep.Result.Attempted += a
		rep.Result.Failed += f
		rep.Failures = append(rep.Failures, p.failures...)
		rep.Env.Invalid = append(rep.Env.Invalid, p.invalid(env.Cores)...)
	}
	last := phases[len(phases)-1]
	rep.Env.Triples = last.triples
	rep.Env.StealFrac = last.steal
	rep.Env.Valid = len(rep.Env.Invalid) == 0
	rep.Env.ErrorRate = ratio(float64(rep.Result.Failed), float64(rep.Result.Attempted))
	rep.Result.Correct = rep.Result.Failed == 0
	if !traced {
		rep.Result.Metrics = endToEnd(last)
		return rep, nil
	}
	rep.Result.Metrics = perLayer(phases[0], last)
	rep.spans = allSpans(append(last.tracers, last.warmTracer)...)
	return rep, nil
}

// calibrate times a fixed CPU-bound task, best of three: sorting 2^20
// pseudo-random integers. It witnesses how fast the machine ran, so
// runs on a machine whose speed drifts can be told apart.
func calibrate() time.Duration {
	best := time.Duration(math.MaxInt64)
	xs := make([]uint64, 1<<20)
	for r := 0; r < 3; r++ {
		x := uint64(88172645463325252)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			xs[i] = x
		}
		t0 := time.Now()
		slices.Sort(xs)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}
