package search

import (
	"math"
	"testing"

	"xdse/internal/arch"
)

func toyProblem(budget int) *Problem {
	return &Problem{
		Space:  arch.EdgeSpace(),
		Budget: budget,
		Evaluate: func(pt arch.Point) Costs {
			return Costs{Objective: float64(pt[0]), Feasible: true, BudgetUtil: 0.5}
		},
	}
}

func TestStartDefaultsToInitial(t *testing.T) {
	p := toyProblem(10)
	if !p.Start().Equal(p.Space.Initial()) {
		t.Fatal("Start should default to Space.Initial")
	}
	custom := p.Space.Initial()
	custom[0] = 3
	p.Initial = custom
	got := p.Start()
	if got[0] != 3 {
		t.Fatal("Start ignored Initial")
	}
	got[0] = 5
	if p.Initial[0] != 3 {
		t.Fatal("Start must clone the initial point")
	}
}

func TestTraceRecordTracksBest(t *testing.T) {
	p := toyProblem(3)
	tr := &Trace{}
	pt := p.Space.Initial()

	pt[0] = 5
	if !tr.Record(p, pt, Costs{Objective: 50, Feasible: true}) {
		t.Fatal("budget should allow more")
	}
	pt[0] = 2
	tr.Record(p, pt, Costs{Objective: 20, Feasible: true})
	pt[0] = 4
	if tr.Record(p, pt, Costs{Objective: 40, Feasible: true}) {
		t.Fatal("budget exhausted, Record should return false")
	}
	if tr.BestObjective() != 20 {
		t.Fatalf("best = %v, want 20", tr.BestObjective())
	}
	if tr.Evaluations != 3 {
		t.Fatalf("evaluations = %d", tr.Evaluations)
	}
	if tr.Steps[2].BestSoFar != 20 {
		t.Fatalf("best-so-far after worse point = %v", tr.Steps[2].BestSoFar)
	}
}

func TestRepeatAcquisitionsAreBudgetFree(t *testing.T) {
	p := toyProblem(2)
	tr := &Trace{}
	pt := p.Space.Initial()
	for i := 0; i < 5; i++ {
		if !tr.Record(p, pt, Costs{Objective: 1, Feasible: true}) {
			t.Fatal("re-acquiring a memoized point must not exhaust the budget")
		}
	}
	if tr.Evaluations != 1 || tr.RepeatSteps != 4 {
		t.Fatalf("evaluations=%d repeats=%d, want 1 and 4", tr.Evaluations, tr.RepeatSteps)
	}
	if !tr.Seen(pt) {
		t.Fatal("Seen must report recorded points")
	}
	other := pt.Clone()
	other[0] = pt[0] + 1
	if tr.Seen(other) {
		t.Fatal("Seen must not report unrecorded points")
	}
	if tr.Record(p, other, Costs{Objective: 2, Feasible: true}) {
		t.Fatal("second unique point exhausts the budget of 2")
	}
	if tr.Evaluations != 2 {
		t.Fatalf("evaluations = %d, want 2", tr.Evaluations)
	}
}

func TestMaxStepsCapsRepeatAcquisitions(t *testing.T) {
	p := toyProblem(5)
	p.MaxSteps = 7
	tr := &Trace{}
	pt := p.Space.Initial()
	steps := 0
	for tr.Record(p, pt, Costs{Objective: 1, Feasible: true}) {
		steps++
		if steps > 100 {
			t.Fatal("budget-free repeats must still terminate via MaxSteps")
		}
	}
	if len(tr.Steps) != 7 {
		t.Fatalf("recorded %d steps, want MaxSteps=7", len(tr.Steps))
	}
}

func TestRecordBatchStopsAtBudget(t *testing.T) {
	p := toyProblem(2)
	tr := &Trace{}
	var pts []arch.Point
	var costs []Costs
	for i := 0; i < 4; i++ {
		pt := p.Space.Initial()
		pt[0] = i
		pts = append(pts, pt)
		costs = append(costs, Costs{Objective: float64(i), Feasible: true})
	}
	if tr.RecordBatch(p, pts, costs) {
		t.Fatal("batch beyond the budget must report exhaustion")
	}
	if tr.Evaluations != 2 || len(tr.Steps) != 2 {
		t.Fatalf("evaluations=%d steps=%d, want exactly the budget of 2",
			tr.Evaluations, len(tr.Steps))
	}
}

func TestTraceInfeasibleNeverBest(t *testing.T) {
	p := toyProblem(5)
	tr := &Trace{}
	tr.Record(p, p.Space.Initial(), Costs{Objective: 1, Feasible: false})
	if tr.Best != nil {
		t.Fatal("infeasible point became best")
	}
	if !math.IsInf(tr.BestObjective(), 1) {
		t.Fatal("best objective should be +Inf")
	}
}

func TestFeasibleFractions(t *testing.T) {
	p := toyProblem(4)
	tr := &Trace{}
	pt := p.Space.Initial()
	tr.Record(p, pt, Costs{Feasible: true, MeetsAreaPower: true})
	tr.Record(p, pt, Costs{Feasible: false, MeetsAreaPower: true})
	tr.Record(p, pt, Costs{Feasible: false, MeetsAreaPower: false})
	tr.Record(p, pt, Costs{Feasible: true, MeetsAreaPower: true})
	if got := tr.FeasibleFraction(); got != 0.5 {
		t.Fatalf("feasible fraction = %v", got)
	}
	if got := tr.AreaPowerFraction(); got != 0.75 {
		t.Fatalf("area/power fraction = %v", got)
	}
	if (&Trace{}).FeasibleFraction() != 0 {
		t.Fatal("empty trace fraction should be 0")
	}
}

func TestReductionPerAttempt(t *testing.T) {
	p := toyProblem(10)
	tr := &Trace{}
	pt := p.Space.Initial()
	// After the first feasible: one halving and one flat attempt ->
	// geomean sqrt(2) - 1 = ~41.4%.
	tr.Record(p, pt, Costs{Objective: 100, Feasible: true})
	tr.Record(p, pt, Costs{Objective: 50, Feasible: true})
	tr.Record(p, pt, Costs{Objective: 60, Feasible: true})
	want := (math.Sqrt2 - 1) * 100
	if got := tr.ReductionPerAttempt(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("reduction per attempt = %v, want %v", got, want)
	}
	if (&Trace{}).ReductionPerAttempt() != 0 {
		t.Fatal("empty trace should report 0")
	}
}

func TestEvalsToBest(t *testing.T) {
	p := toyProblem(10)
	tr := &Trace{}
	if tr.EvalsToBest() != 0 {
		t.Fatal("empty trace must report 0 evals-to-best")
	}
	pt := p.Space.Initial()
	pt[0] = 5
	tr.Record(p, pt, Costs{Objective: 50, Feasible: true})
	tr.Record(p, pt, Costs{Objective: 50, Feasible: true}) // budget-free repeat
	pt[0] = 2
	tr.Record(p, pt, Costs{Objective: 20, Feasible: true}) // the final best
	pt[0] = 4
	tr.Record(p, pt, Costs{Objective: 40, Feasible: true})
	// Best found on the 2nd unique evaluation (3rd step); the repeat and
	// the trailing worse point must not count.
	if got := tr.EvalsToBest(); got != 2 {
		t.Fatalf("evals-to-best = %d, want 2", got)
	}
	if tr.Evaluations != 3 {
		t.Fatalf("evaluations = %d, want 3", tr.Evaluations)
	}
}
