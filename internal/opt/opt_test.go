package opt

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/search"
)

// synthProblem is a cheap separable minimization over the edge space: the
// objective rewards moving every index toward its target, and feasibility
// requires the first parameter to stay in the lower half (a constraint all
// constrained optimizers must learn). Its memo is lock-protected so tests
// may raise Workers above 1.
func synthProblem(budget int) *search.Problem {
	space := arch.EdgeSpace()
	var mu sync.Mutex
	cache := map[string]search.Costs{}
	return &search.Problem{
		Space:  space,
		Budget: budget,
		Evaluate: func(pt arch.Point) search.Costs {
			mu.Lock()
			defer mu.Unlock()
			if c, ok := cache[pt.Key()]; ok {
				return c
			}
			obj := 1.0
			for i, v := range pt {
				n := len(space.Params[i].Values)
				target := (n - 1) / 2
				d := float64(v-target) / float64(n)
				obj += d * d * 100
			}
			feasible := pt[0] <= len(space.Params[0].Values)/2
			util := 0.4
			violations := 0
			if !feasible {
				util = 1.5
				violations = 1
			}
			c := search.Costs{
				Objective: obj, Feasible: feasible,
				MeetsAreaPower: feasible, BudgetUtil: util, Violations: violations,
			}
			cache[pt.Key()] = c
			return c
		},
	}
}

// runAll exercises one optimizer and checks the universal contracts.
func checkOptimizer(t *testing.T, o search.Optimizer, budget int, wantBest float64) {
	t.Helper()
	p := synthProblem(budget)
	tr := o.Run(p, rand.New(rand.NewSource(42)))
	if tr.Evaluations > budget {
		t.Fatalf("%s: %d evaluations > budget %d", o.Name(), tr.Evaluations, budget)
	}
	if len(tr.Steps) != tr.Evaluations+tr.RepeatSteps {
		t.Fatalf("%s: steps %d != evaluations %d + repeats %d",
			o.Name(), len(tr.Steps), tr.Evaluations, tr.RepeatSteps)
	}
	if tr.Best == nil {
		t.Fatalf("%s: found no feasible point", o.Name())
	}
	if !tr.BestCosts.Feasible {
		t.Fatalf("%s: best point infeasible", o.Name())
	}
	if tr.BestObjective() > wantBest {
		t.Fatalf("%s: best %v > %v", o.Name(), tr.BestObjective(), wantBest)
	}
	// Best-so-far must be monotone non-increasing.
	prev := math.Inf(1)
	for _, s := range tr.Steps {
		if s.BestSoFar > prev {
			t.Fatalf("%s: best-so-far increased", o.Name())
		}
		prev = s.BestSoFar
	}
}

func TestGrid(t *testing.T)        { checkOptimizer(t, Grid{}, 600, 300) }
func TestRandom(t *testing.T)      { checkOptimizer(t, Random{}, 600, 90) }
func TestAnneal(t *testing.T)      { checkOptimizer(t, Anneal{}, 600, 70) }
func TestGenetic(t *testing.T)     { checkOptimizer(t, Genetic{}, 600, 70) }
func TestBayes(t *testing.T)       { checkOptimizer(t, Bayes{}, 200, 90) }
func TestHyperMapper(t *testing.T) { checkOptimizer(t, HyperMapper{}, 300, 90) }
func TestRL(t *testing.T)          { checkOptimizer(t, RL{}, 600, 90) }

func TestFeedbackBeatsRandomOnAverage(t *testing.T) {
	// The feedback optimizers should outperform pure random search on
	// the smooth synthetic objective given the same budget (averaged
	// over seeds to avoid flakiness).
	avg := func(o search.Optimizer) float64 {
		sum := 0.0
		for seed := int64(1); seed <= 5; seed++ {
			p := synthProblem(400)
			tr := o.Run(p, rand.New(rand.NewSource(seed)))
			sum += math.Min(tr.BestObjective(), 1000)
		}
		return sum / 5
	}
	rnd := avg(Random{})
	for _, o := range []search.Optimizer{Anneal{}, Genetic{}} {
		if got := avg(o); got > rnd*1.1 {
			t.Errorf("%s avg %v worse than random %v", o.Name(), got, rnd)
		}
	}
}

func TestScorePenalizesInfeasible(t *testing.T) {
	feas := search.Costs{Objective: 1e6, Feasible: true}
	infeas := search.Costs{Objective: 0.1, Feasible: false, BudgetUtil: 1.2}
	if score(feas) >= score(infeas) {
		t.Fatal("any feasible point must score below any infeasible point")
	}
	worse := search.Costs{Feasible: false, BudgetUtil: 3.0}
	if score(infeas) >= score(worse) {
		t.Fatal("less-violating infeasible points must score lower")
	}
	inf := search.Costs{Feasible: false, BudgetUtil: math.Inf(1)}
	if math.IsInf(score(inf), 1) || math.IsNaN(score(inf)) {
		t.Fatal("score must stay finite")
	}
}

func TestNormalize(t *testing.T) {
	p := synthProblem(1)
	pt := p.Space.Initial()
	x := normalize(p, pt)
	for _, v := range x {
		if v != 0 {
			t.Fatalf("initial point normalizes to %v", x)
		}
	}
	for i := range pt {
		pt[i] = len(p.Space.Params[i].Values) - 1
	}
	for _, v := range normalize(p, pt) {
		if v != 1 {
			t.Fatal("max point must normalize to all ones")
		}
	}
}

func TestGridCoversBudget(t *testing.T) {
	p := synthProblem(500)
	tr := Grid{}.Run(p, rand.New(rand.NewSource(1)))
	if tr.Evaluations < 250 {
		t.Fatalf("grid evaluated only %d of 500 budget", tr.Evaluations)
	}
}

func TestNeighborMoves(t *testing.T) {
	space := arch.EdgeSpace()
	rng := rand.New(rand.NewSource(3))
	pt := space.Initial()
	for i := 0; i < 100; i++ {
		nb := neighbor(space, pt, rng)
		diff := 0
		for j := range nb {
			if nb[j] != pt[j] {
				diff++
				if nb[j] < 0 || nb[j] >= len(space.Params[j].Values) {
					t.Fatal("neighbor out of range")
				}
			}
		}
		if diff != 1 {
			t.Fatalf("neighbor changed %d params", diff)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	for _, o := range []search.Optimizer{Random{}, Anneal{}, Genetic{}, RL{}, HyperMapper{Warmup: 5, Pool: 50}} {
		a := o.Run(synthProblem(60), rand.New(rand.NewSource(9)))
		b := o.Run(synthProblem(60), rand.New(rand.NewSource(9)))
		if a.BestObjective() != b.BestObjective() {
			t.Errorf("%s: non-deterministic results", o.Name())
		}
	}
}
