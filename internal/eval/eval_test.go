package eval

import (
	"math"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/workload"
)

func newEval(mode MapperMode, models ...*workload.Model) *Evaluator {
	if len(models) == 0 {
		models = []*workload.Model{workload.ResNet18()}
	}
	return New(Config{
		Space:       arch.EdgeSpace(),
		Models:      models,
		Constraints: EdgeConstraints(),
		Mode:        mode,
		MapTrials:   200,
		Seed:        1,
	})
}

func compatiblePoint(space *arch.Space) arch.Point {
	pt := space.Initial()
	pt[arch.PPEs] = 2
	pt[arch.PL1] = 4
	pt[arch.PL2] = 3
	for op := 0; op < arch.NumOperands; op++ {
		pt[arch.PVirt0+op] = 2
	}
	return pt
}

func TestEvaluateCaches(t *testing.T) {
	e := newEval(FixedDataflow)
	pt := compatiblePoint(e.Config().Space)
	r1 := e.Evaluate(pt)
	r2 := e.Evaluate(pt)
	if r1 != r2 {
		t.Fatal("second evaluation should hit the cache")
	}
	if e.Evaluations() != 1 {
		t.Fatalf("evaluations = %d, want 1", e.Evaluations())
	}
}

func TestEvaluateFixedDataflow(t *testing.T) {
	e := newEval(FixedDataflow)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	me := r.Models[0]
	if me.Incompatible {
		t.Fatal("compatible point evaluated incompatible")
	}
	if len(me.Layers) != 9 {
		t.Fatalf("layers = %d", len(me.Layers))
	}
	if me.Cycles <= 0 || math.IsInf(me.Cycles, 1) {
		t.Fatalf("cycles = %v", me.Cycles)
	}
	// Latency unit conversion: cycles at 500 MHz.
	want := me.Cycles / (500 * 1e3)
	if math.Abs(me.LatencyMs-want) > 1e-9 {
		t.Fatalf("latency = %v, want %v", me.LatencyMs, want)
	}
	if r.LatencyMs != me.LatencyMs {
		t.Fatal("single-model objective must equal the model latency")
	}
	if me.EnergyMJ <= 0 {
		t.Fatal("energy must be positive")
	}
	// Multiplicity weighting: total cycles exceed the unique-layer sum.
	var uniq float64
	for _, le := range me.Layers {
		uniq += le.Perf.Cycles
	}
	if me.Cycles <= uniq {
		t.Fatal("multiplicity weighting missing")
	}
}

func TestIncompatibleDesignGrading(t *testing.T) {
	e := newEval(FixedDataflow)
	space := e.Config().Space
	r := e.Evaluate(space.Initial())
	if !r.Models[0].Incompatible {
		t.Skip("initial design unexpectedly compatible")
	}
	if !math.IsInf(r.LatencyMs, 1) {
		t.Fatal("incompatible design must have infinite latency")
	}
	if r.Feasible {
		t.Fatal("incompatible design cannot be feasible")
	}
	if r.BudgetUtil < 100 {
		t.Fatalf("incompatibility penalty too small: %v", r.BudgetUtil)
	}

	// Fixing one NoC must strictly reduce the budget (the §4.6 progress
	// signal the DSE relies on).
	pt := space.Initial()
	pt[arch.PVirt0+int(arch.OpI)] = 2
	r2 := e.Evaluate(pt)
	if !r2.Models[0].Incompatible {
		t.Skip("single fix unexpectedly sufficient")
	}
	if r2.BudgetUtil >= r.BudgetUtil {
		t.Fatalf("partial fix did not reduce budget: %v -> %v", r.BudgetUtil, r2.BudgetUtil)
	}
}

func TestConstraintChecks(t *testing.T) {
	e := newEval(FixedDataflow)
	space := e.Config().Space
	pt := space.Initial()
	for i := range pt {
		pt[i] = len(space.Params[i].Values) - 1
	}
	r := e.Evaluate(pt)
	if r.MeetsAreaPower {
		t.Fatal("maximal design must violate area/power")
	}
	if len(r.Violations) == 0 {
		t.Fatal("violations not reported")
	}
	if r.Feasible {
		t.Fatal("violating design reported feasible")
	}
}

func TestThroughputConstraint(t *testing.T) {
	e := newEval(FixedDataflow)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	me := r.Models[0]
	wantMeets := me.LatencyMs <= me.Model.MaxLatencyMs
	if me.MeetsThroughput != wantMeets {
		t.Fatal("throughput check inconsistent")
	}
	if !wantMeets && r.Feasible {
		t.Fatal("feasible despite missing throughput")
	}
}

func TestBudgetUtilIsMeanOfUtilizations(t *testing.T) {
	e := newEval(FixedDataflow)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	if r.Models[0].Incompatible {
		t.Skip("point incompatible")
	}
	c := EdgeConstraints()
	want := (r.AreaMM2/c.MaxAreaMM2 + r.PowerW/c.MaxPowerW +
		r.Models[0].LatencyMs/r.Models[0].Model.MaxLatencyMs) / 3
	if math.Abs(r.BudgetUtil-want) > 1e-9 {
		t.Fatalf("budget util = %v, want %v", r.BudgetUtil, want)
	}
}

func TestOptimizedMappingModesBeatNothing(t *testing.T) {
	for _, mode := range []MapperMode{RandomMappings, PrunedMappings} {
		// Random sampling needs a realistic trial budget to hit valid
		// mappings on tight designs (the paper gives it 10,000).
		e := New(Config{
			Space:       arch.EdgeSpace(),
			Models:      []*workload.Model{workload.ResNet18()},
			Constraints: EdgeConstraints(),
			Mode:        mode,
			MapTrials:   2000,
			Seed:        1,
		})
		r := e.Evaluate(compatiblePoint(e.Config().Space))
		if r.Models[0].Incompatible {
			t.Errorf("%v: compatible point found no mappings", mode)
			continue
		}
		if r.MapEvaluations == 0 {
			t.Errorf("%v: no mapping trials recorded", mode)
		}
	}
}

func TestPrunedMappingsAtLeastAsGoodAsFixed(t *testing.T) {
	// The codesign mapper optimizes over a superset including OS-like
	// mappings, so on the same design it should be within a small factor
	// of the fixed dataflow (it can win or approximately tie).
	pt := compatiblePoint(arch.EdgeSpace())
	fixed := newEval(FixedDataflow).Evaluate(pt)
	pruned := newEval(PrunedMappings).Evaluate(pt)
	if pruned.Models[0].Incompatible || fixed.Models[0].Incompatible {
		t.Skip("point incompatible")
	}
	if pruned.LatencyMs > fixed.LatencyMs*3 {
		t.Fatalf("pruned mapping %vms much worse than fixed %vms", pruned.LatencyMs, fixed.LatencyMs)
	}
}

func TestMultiWorkloadObjectiveSums(t *testing.T) {
	e := newEval(FixedDataflow, workload.ResNet18(), workload.MobileNetV2())
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	if len(r.Models) != 2 {
		t.Fatalf("models = %d", len(r.Models))
	}
	want := r.Models[0].LatencyMs + r.Models[1].LatencyMs
	if math.Abs(r.LatencyMs-want) > 1e-9 {
		t.Fatalf("objective = %v, want sum %v", r.LatencyMs, want)
	}
}

func TestProblemAdapter(t *testing.T) {
	e := newEval(FixedDataflow)
	p := e.Problem(50)
	if p.Budget != 50 {
		t.Fatal("budget not propagated")
	}
	pt := compatiblePoint(e.Config().Space)
	c := p.Evaluate(pt)
	r := e.Evaluate(pt)
	if c.Objective != r.LatencyMs || c.Feasible != r.Feasible ||
		c.BudgetUtil != r.BudgetUtil || c.Violations != len(r.Violations) {
		t.Fatal("adapter disagrees with evaluator")
	}
	if c.Raw.(*Result) != r {
		t.Fatal("raw payload must be the evaluation result")
	}
}

func TestEvaluateDeterministicAcrossEvaluators(t *testing.T) {
	pt := compatiblePoint(arch.EdgeSpace())
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		a := newEval(mode).Evaluate(pt)
		b := newEval(mode).Evaluate(pt)
		if a.LatencyMs != b.LatencyMs {
			t.Errorf("%v: non-deterministic latency %v vs %v", mode, a.LatencyMs, b.LatencyMs)
		}
	}
}

func TestWholeSuiteFixedDataflowEvaluates(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide evaluation")
	}
	pt := compatiblePoint(arch.EdgeSpace())
	for _, m := range workload.Suite() {
		e := newEval(FixedDataflow, m)
		r := e.Evaluate(pt)
		if r.Models[0].Incompatible {
			t.Errorf("%s: incompatible on roomy design", m.Name)
			continue
		}
		if r.Models[0].Cycles <= 0 {
			t.Errorf("%s: non-positive cycles", m.Name)
		}
	}
}

func TestMapperModeString(t *testing.T) {
	if FixedDataflow.String() != "fixed-dataflow" ||
		RandomMappings.String() != "random-mappings" ||
		PrunedMappings.String() != "pruned-mappings" {
		t.Fatal("mode names wrong")
	}
}

func TestMinEnergyObjective(t *testing.T) {
	pt := compatiblePoint(arch.EdgeSpace())
	lat := New(Config{
		Space: arch.EdgeSpace(), Models: []*workload.Model{workload.ResNet18()},
		Constraints: EdgeConstraints(), Mode: FixedDataflow, Seed: 1,
	}).Evaluate(pt)
	eng := New(Config{
		Space: arch.EdgeSpace(), Models: []*workload.Model{workload.ResNet18()},
		Constraints: EdgeConstraints(), Mode: FixedDataflow,
		Objective: MinEnergy, Seed: 1,
	}).Evaluate(pt)

	if lat.Objective != lat.LatencyMs {
		t.Fatalf("latency objective = %v, want %v", lat.Objective, lat.LatencyMs)
	}
	if eng.Objective != eng.EnergyMJ {
		t.Fatalf("energy objective = %v, want %v", eng.Objective, eng.EnergyMJ)
	}
	// The underlying evaluation is identical; only the objective differs.
	if lat.LatencyMs != eng.LatencyMs || lat.EnergyMJ != eng.EnergyMJ {
		t.Fatal("objective selection changed the evaluation itself")
	}
	if MinLatency.String() != "min-latency" || MinEnergy.String() != "min-energy" {
		t.Fatal("objective names wrong")
	}
}

func TestLayerEnergySumsToModelEnergy(t *testing.T) {
	e := newEval(FixedDataflow)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	var sum float64
	for _, le := range r.Models[0].Layers {
		sum += le.EnergyMJ
	}
	if math.Abs(sum-r.Models[0].EnergyMJ) > 1e-9 {
		t.Fatalf("layer energies %v != model energy %v", sum, r.Models[0].EnergyMJ)
	}
}
