package opt

import (
	"math/rand"
	"testing"

	"xdse/internal/search"
)

// assertTracesEqual pins two traces bit-identical: same acquisition
// sequence, same costs, same budget accounting, same best solution.
func assertTracesEqual(t *testing.T, name string, a, b *search.Trace) {
	t.Helper()
	if a.Evaluations != b.Evaluations || a.RepeatSteps != b.RepeatSteps {
		t.Fatalf("%s: accounting differs: %d/%d evaluations, %d/%d repeats",
			name, a.Evaluations, b.Evaluations, a.RepeatSteps, b.RepeatSteps)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: %d vs %d steps", name, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Point.Key() != sb.Point.Key() {
			t.Fatalf("%s: step %d acquired %v vs %v", name, i, sa.Point, sb.Point)
		}
		if sa.Costs != sb.Costs || sa.BestSoFar != sb.BestSoFar {
			t.Fatalf("%s: step %d costs differ: %+v vs %+v", name, i, sa.Costs, sb.Costs)
		}
	}
	if (a.Best == nil) != (b.Best == nil) {
		t.Fatalf("%s: one trace found a solution, the other did not", name)
	}
	if a.Best != nil && (a.Best.Key() != b.Best.Key() || a.BestCosts != b.BestCosts) {
		t.Fatalf("%s: best %v (%v) vs %v (%v)",
			name, a.Best, a.BestCosts.Objective, b.Best, b.BestCosts.Objective)
	}
}

// TestSerialParallelTraceEquality is the determinism contract of the batch
// layer: for every baseline optimizer, a run with Workers=8 must produce a
// trace bit-identical to the same run with Workers=1, including batched
// variants of the sequential techniques.
func TestSerialParallelTraceEquality(t *testing.T) {
	cases := []struct {
		name string
		mk   func() search.Optimizer
	}{
		{"Grid", func() search.Optimizer { return Grid{} }},
		{"Random", func() search.Optimizer { return Random{} }},
		{"Anneal", func() search.Optimizer { return Anneal{} }},
		{"Anneal-Batch4", func() search.Optimizer { return Anneal{Batch: 4} }},
		{"Genetic", func() search.Optimizer { return Genetic{} }},
		{"Bayes", func() search.Optimizer { return Bayes{Warmup: 8, Pool: 40} }},
		{"HyperMapper", func() search.Optimizer { return HyperMapper{Warmup: 8, Pool: 40} }},
		{"RL", func() search.Optimizer { return RL{} }},
		{"RL-Batch4", func() search.Optimizer { return RL{Batch: 4} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := synthProblem(60)
			serial.Workers = 1
			parallel := synthProblem(60)
			parallel.Workers = 8
			a := tc.mk().Run(serial, rand.New(rand.NewSource(5)))
			b := tc.mk().Run(parallel, rand.New(rand.NewSource(5)))
			assertTracesEqual(t, tc.name, a, b)
		})
	}
}

// TestBatchedVariantsStayInBudget covers the batched sequential techniques
// against budget overruns and accounting drift under a parallel pool.
func TestBatchedVariantsStayInBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    search.Optimizer
	}{
		{"Anneal", Anneal{Batch: 8}},
		{"RL", RL{Batch: 8}},
	} {
		p := synthProblem(50)
		p.Workers = 4
		tr := tc.o.Run(p, rand.New(rand.NewSource(11)))
		if tr.Evaluations > p.Budget {
			t.Errorf("%s: %d evaluations > budget %d", tc.name, tr.Evaluations, p.Budget)
		}
		if len(tr.Steps) != tr.Evaluations+tr.RepeatSteps {
			t.Errorf("%s: steps %d != evaluations %d + repeats %d",
				tc.name, len(tr.Steps), tr.Evaluations, tr.RepeatSteps)
		}
	}
}
