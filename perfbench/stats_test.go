package main

import (
	"testing"
	"time"

	"cliquesquare/internal/systems/csq"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if xs[0] != 15 || xs[4] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
		ok   bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{100, 90, 10, true},
		{99, 90, 9, false},
		{200, 95, 10, true},
		{0, 99, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
		if got := tailSupported(c.n, c.p); got != c.ok {
			t.Errorf("tailSupported(%d, p%g) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const period = 20 * time.Millisecond
	stall := 3 * period
	start := time.Now()
	cs := openLoop(start, 4, func(i int) time.Duration { return time.Duration(i) * period }, func(i int) (csq.BatchResult, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return csq.BatchResult{}, nil
	})
	if len(cs) != 4 {
		t.Fatalf("%d results, want 4", len(cs))
	}
	// The stall delays batches 1 and 2 past their due times: their
	// latency counts the wait, and the generator reports the lag.
	for i := 1; i <= 2; i++ {
		c := cs[i]
		wantLag := stall - c.due
		if c.lag < wantLag {
			t.Errorf("batch %d: lag %v, want at least %v", i, c.lag, wantLag)
		}
		if c.lat != c.lag+c.service {
			t.Errorf("batch %d: latency %v is not lag %v plus service %v", i, c.lat, c.lag, c.service)
		}
		if c.lat < wantLag {
			t.Errorf("batch %d: latency %v measured from issue, not from due time", i, c.lat)
		}
	}
	if cs[0].lat < stall {
		t.Errorf("batch 0: latency %v, want at least %v", cs[0].lat, stall)
	}
}

func TestClosedLoopRunsAtLeastMinOps(t *testing.T) {
	rs := closedLoop(time.Now(), 0, 5, func(seq int) readResult { return readResult{seq: seq} })
	if len(rs) != 5 || rs[4].seq != 4 {
		t.Fatalf("got %d reads, want 5 in order", len(rs))
	}
}
