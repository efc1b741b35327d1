package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tiny runs a workload on a small dataset for a fraction of a second.
func tiny(t *testing.T, name string, traced bool, seed int64) *report {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg := config{seed: seed, seconds: 300 * time.Millisecond, univ: 2, setups: 2, scratch: t.TempDir()}
	rep, err := measure(w, cfg, traced)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := tiny(t, w.name, false, 1)
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, rep.Failures)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			if got, want := names(res.Metrics), endToEndNames; !equal(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
		})
	}
}

// TestTracedCountsRepeat checks that the exact counts of a traced run
// repeat for a seed, and that every per-layer metric is reported.
func TestTracedCountsRepeat(t *testing.T) {
	exact := []string{"exec.jobs", "exec.shuffled_records", "exec.shuffled_cells", "exec.output_rows",
		"decode.cells", "optimizer.plans_explored", "commit.effective_triples"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ra, rb := tiny(t, w.name, true, 5), tiny(t, w.name, true, 5)
			a, b := ra.Result, rb.Result
			if !a.Correct || !b.Correct {
				t.Fatalf("traced run wrong: %v %v", ra.Failures, rb.Failures)
			}
			if got := names(a.Metrics); !equal(got, perLayerNames()) {
				t.Errorf("per-layer metrics %v, want %v", got, perLayerNames())
			}
			for _, n := range exact {
				if a.Metrics[n] != b.Metrics[n] {
					t.Errorf("%s: %v then %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
				}
			}
		})
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json in step with what the
// program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	list := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	sort.Strings(ws)
	if got := list(b.Workloads); !equal(got, ws) {
		t.Errorf("workloads %v, want %v", got, ws)
	}
	if got := list(b.EndToEnd); !equal(got, endToEndNames) {
		t.Errorf("end_to_end %v, want %v", got, endToEndNames)
	}
	if got := list(b.PerLayer); !equal(got, perLayerNames()) {
		t.Errorf("per_layer %v, want %v", got, perLayerNames())
	}
}

var endToEndNames = []string{"heap_live_mb", "median_p50_ms", "ops_per_s", "setup_s", "tail_ms"}

func names(m metrics) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// perLayerNames lists every per-layer metric perLayer reports, sorted.
func perLayerNames() []string {
	p := &phase{w: workloads[0], warmTracer: &tracer{}}
	m := perLayer(p, p)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
