package eval

import (
	"math"
	"sync"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/workload"
)

// TestEvaluateConcurrentHammer races many goroutines over a small set of
// overlapping design points (run under -race in CI). Every call for a key
// must return the same memoized result, unique evaluations must equal the
// number of distinct keys, and every other call must be accounted as either
// a cache hit or an in-flight dedup — nothing computed twice, nothing lost.
func TestEvaluateConcurrentHammer(t *testing.T) {
	e := newEval(FixedDataflow)
	space := e.Config().Space

	const unique = 6
	pts := make([]arch.Point, unique)
	for i := range pts {
		pt := compatiblePoint(space)
		pt[arch.PPEs] = i % len(space.Params[arch.PPEs].Values)
		pts[i] = pt
	}

	const goroutines = 16
	const callsPer = 24
	results := make([][]*Result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]*Result, callsPer)
			for i := 0; i < callsPer; i++ {
				results[g][i] = e.Evaluate(pts[(g+i)%unique])
			}
		}(g)
	}
	wg.Wait()

	canonical := map[string]*Result{}
	for g := range results {
		for i, r := range results[g] {
			key := pts[(g+i)%unique].Key()
			if prev, ok := canonical[key]; ok && prev != r {
				t.Fatalf("point %s returned two distinct results", key)
			}
			canonical[key] = r
		}
	}
	s := e.Stats()
	if s.Evaluations != unique {
		t.Fatalf("evaluations = %d, want %d unique", s.Evaluations, unique)
	}
	total := goroutines * callsPer
	if s.CacheHits+s.InflightDedups != total-unique {
		t.Fatalf("hits %d + dedups %d != %d calls - %d unique",
			s.CacheHits, s.InflightDedups, total, unique)
	}
	if s.MapTrials <= 0 || s.EvalWall <= 0 {
		t.Fatalf("instrumentation not recorded: %+v", s)
	}
}

func TestConstraintUtilGuards(t *testing.T) {
	cases := []struct {
		value, limit, want float64
	}{
		{50, 100, 0.5},
		{0, 0, 0},                                     // nothing used, nothing allowed
		{-1, 0, 0},                                    // degenerate negative usage
		{5, 0, maxConstraintUtil},                     // zero limit with real usage
		{5, -1, maxConstraintUtil},                    // negative limit
		{math.Inf(1), 100, maxConstraintUtil},         // infinite usage
		{math.NaN(), 100, maxConstraintUtil},          // NaN usage
		{math.Inf(1), math.Inf(1), maxConstraintUtil}, // Inf/Inf would be NaN
	}
	for _, tc := range cases {
		got := constraintUtil(tc.value, tc.limit)
		if got != tc.want {
			t.Errorf("constraintUtil(%v, %v) = %v, want %v", tc.value, tc.limit, got, tc.want)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("constraintUtil(%v, %v) not finite: %v", tc.value, tc.limit, got)
		}
	}
}

// TestZeroFrequencyDesign pins the LatencyMs = Cycles/FreqMHz guard: a
// clockless design must read as infinitely slow, not NaN.
func TestZeroFrequencyDesign(t *testing.T) {
	s := arch.EdgeSpace()
	s.FreqMHz = 0
	e := New(cacheTestConfig(s, FixedDataflow))
	me := e.Evaluate(compatiblePoint(s)).Models[0]
	if !math.IsInf(me.LatencyMs, 1) {
		t.Fatalf("latency at 0 MHz = %v, want +Inf", me.LatencyMs)
	}
	if me.MeetsThroughput {
		t.Fatal("a clockless design cannot meet a throughput ceiling")
	}
}

// TestEmptyModelEvaluates pins the IncompatSeverity /= len(Layers) guard: a
// model with no layers must not divide by zero.
func TestEmptyModelEvaluates(t *testing.T) {
	empty := &workload.Model{Name: "empty", MaxLatencyMs: 10}
	e := New(Config{
		Space:       arch.EdgeSpace(),
		Models:      []*workload.Model{empty},
		Constraints: EdgeConstraints(),
		Mode:        FixedDataflow,
		Seed:        1,
	})
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	me := r.Models[0]
	if math.IsNaN(me.IncompatSeverity) || math.IsNaN(me.LatencyMs) {
		t.Fatalf("empty model produced NaN: severity=%v latency=%v",
			me.IncompatSeverity, me.LatencyMs)
	}
	if math.IsNaN(r.BudgetUtil) {
		t.Fatalf("budget util = %v", r.BudgetUtil)
	}
}

// TestZeroLatencyCeiling pins the checkConstraints guard: a model with no
// latency ceiling reads as a hard throughput violation with a large finite
// budget, never NaN/Inf — so the §4.6 budget comparisons stay ordered.
func TestZeroLatencyCeiling(t *testing.T) {
	m := workload.ResNet18()
	m.MaxLatencyMs = 0
	e := New(Config{
		Space:       arch.EdgeSpace(),
		Models:      []*workload.Model{m},
		Constraints: EdgeConstraints(),
		Mode:        FixedDataflow,
		Seed:        1,
	})
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	if math.IsNaN(r.BudgetUtil) || math.IsInf(r.BudgetUtil, 0) {
		t.Fatalf("budget util = %v, want finite", r.BudgetUtil)
	}
	if r.Feasible {
		t.Fatal("zero latency ceiling cannot be met")
	}
}
