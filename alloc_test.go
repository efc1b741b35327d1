package cliquesquare

// Allocation-regression pins for the columnar data plane: executing the
// LUBM workload must stay under fixed allocs/op ceilings. The seed's
// executor sat around 21k allocs/op on the full workload; the slab/CSR
// data plane brought it under 4k, and these ceilings (with headroom for
// scheduler noise) keep it from creeping back. Run alongside the
// BENCH_pr6.json CI delta check — this one fails locally, before CI.

import (
	"testing"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/physical"
	"cliquesquare/internal/systems/csq"
)

const (
	// workloadAllocCeiling bounds allocs per execution of the whole
	// 14-query LUBM workload (measured ≈3.6k after the morsel-driven
	// runtime; the seed was ≈21k).
	workloadAllocCeiling = 4000
	// decodeAllocSlack bounds the allocations Prepared.Run adds to
	// ExecutePrepared: the Result, its row index and one cell slab (plus
	// scheduler noise) — a constant, where it used to be one string per
	// cell.
	decodeAllocSlack = 8
	// shuffleHeavyAllocCeiling bounds allocs per execution of the
	// deepest multi-level reduce-join plan (measured ≈0.3k after the
	// morsel rewrite; the seed was ≈6.2k).
	shuffleHeavyAllocCeiling = 400
)

// raceEnabled is set by race_test.go under -race: the detector's
// instrumentation allocates on its own, so the ceilings only hold for
// uninstrumented builds.
var raceEnabled bool

func measureAllocs(t *testing.T, run func()) float64 {
	t.Helper()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	return float64(res.AllocsPerOp())
}

func TestAllocRegressionWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a benchmark run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	g := lubmGraph(6)
	eng := csq.New(g, csq.DefaultConfig())
	var plans []*physical.Plan
	for _, q := range lubm.Queries() {
		_, pp, _, err := eng.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, pp)
	}
	got := measureAllocs(t, func() {
		for _, pp := range plans {
			if _, err := eng.ExecutePlan(pp); err != nil {
				t.Error(err)
			}
		}
	})
	t.Logf("LUBM workload execution: %.0f allocs/op", got)
	if got > workloadAllocCeiling {
		t.Errorf("LUBM workload execution = %.0f allocs/op, ceiling %d", got, workloadAllocCeiling)
	}
}

func TestAllocRegressionShuffleHeavy(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a benchmark run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	g := lubmGraph(6)
	cfg := csq.DefaultConfig()
	eng := csq.New(g, cfg)
	var pp *physical.Plan
	res := testing.Benchmark(func(b *testing.B) {
		if pp == nil {
			pp = shuffleHeavyPlan(b, cfg, g)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ExecutePlan(pp); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := float64(res.AllocsPerOp())
	t.Logf("shuffle-heavy execution: %.0f allocs/op", got)
	if got > shuffleHeavyAllocCeiling {
		t.Errorf("shuffle-heavy execution = %.0f allocs/op, ceiling %d", got, shuffleHeavyAllocCeiling)
	}
}

// TestAllocRegressionDecode pins result decoding to a constant number
// of allocations per Prepared.Run, whatever the row count: each cell is
// the dictionary's stored rendering, not a freshly built string.
func TestAllocRegressionDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is a benchmark run")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	eng, err := NewEngine(lubmGraph(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := lubm.Query("Q1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cells := len(r.Rows) * len(r.Vars); cells <= 10*decodeAllocSlack {
		t.Fatalf("Q1 returned only %d cells; the pin needs a large answer", cells)
	}
	exec := measureAllocs(t, func() {
		if _, err := eng.inner.ExecutePrepared(p.inner); err != nil {
			t.Error(err)
		}
	})
	run := measureAllocs(t, func() {
		if _, err := p.Run(); err != nil {
			t.Error(err)
		}
	})
	t.Logf("Q1 (%d rows): ExecutePrepared %.0f allocs/op, Prepared.Run %.0f", len(r.Rows), exec, run)
	if run-exec > decodeAllocSlack {
		t.Errorf("decoding %d rows costs %.0f allocs/op over execution, want <= %d", len(r.Rows), run-exec, decodeAllocSlack)
	}
}
