package dse

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/bottleneck"
	"xdse/internal/search"
)

// toyEval is the evaluation payload of the synthetic domain below.
type toyEval struct {
	pes, bw  int
	comp     float64
	dma      float64
	area     float64
	areaOver bool
}

// toyModel is a synthetic two-factor bottleneck domain: latency =
// max(compWork/PEs, dmaWork/BW) with an additive area constraint. It lets
// the engine be tested end-to-end without the accelerator substrate.
type toyModel struct {
	space    *arch.Space
	compWork float64
	dmaWork  float64
	areaCap  float64
	// subs splits the workload into sub-functions with different
	// compute/DMA balances to exercise aggregation.
	subs []float64 // fraction of compWork per sub-function
}

func (m *toyModel) evaluate(pt arch.Point) search.Costs {
	d := m.space.MustDecode(pt)
	ev := &toyEval{pes: d.PEs, bw: d.OffchipMBps}
	ev.comp = m.compWork / float64(d.PEs)
	ev.dma = m.dmaWork / float64(d.OffchipMBps)
	ev.area = 0.012*float64(d.PEs) + 0.0002*float64(d.OffchipMBps)
	ev.areaOver = ev.area > m.areaCap
	obj := math.Max(ev.comp, ev.dma)
	feasible := !ev.areaOver
	util := (ev.area / m.areaCap) / 2
	violations := 0
	if ev.areaOver {
		violations++
	}
	return search.Costs{
		Objective:      obj,
		Feasible:       feasible,
		MeetsAreaPower: !ev.areaOver,
		BudgetUtil:     util,
		Violations:     violations,
		Raw:            ev,
	}
}

func (m *toyModel) SubCosts(raw any) []float64 {
	ev := raw.(*toyEval)
	if len(m.subs) == 0 {
		return []float64{math.Max(ev.comp, ev.dma)}
	}
	out := make([]float64, len(m.subs))
	for i, f := range m.subs {
		out[i] = math.Max(ev.comp*f, ev.dma*(1-f))
	}
	return out
}

func (m *toyModel) MitigateObjective(raw any, sub, k int) ([]search.Prediction, string) {
	ev := raw.(*toyEval)
	f := 1.0
	g := 1.0
	if len(m.subs) > 0 {
		f = m.subs[sub]
		g = 1 - f
	}
	root := bottleneck.Max("latency",
		bottleneck.NewLeaf("T_comp", ev.comp*f).WithParams("PEs"),
		bottleneck.NewLeaf("T_dma", ev.dma*g).WithParams("offchip_MBps"),
	)
	var preds []search.Prediction
	for _, bn := range bottleneck.Analyze(root, k) {
		s := bn.Scaling
		if s <= 1.001 {
			s = 2
		}
		pr := search.Prediction{Factor: bn.Factor.Name, Contribution: bn.Contribution, Scaling: s}
		switch bn.Factor.Name {
		case "T_comp":
			pr.Param, pr.Value, pr.Why = arch.PPEs, int(s*float64(ev.pes)), "compute bound"
		case "T_dma":
			pr.Param, pr.Value, pr.Why = arch.PBW, int(s*float64(ev.bw)), "DMA bound"
		default:
			continue
		}
		preds = append(preds, pr)
	}
	return preds, bottleneck.Render(root)
}

func (m *toyModel) MitigateConstraints(raw any) ([]search.Prediction, string) {
	ev := raw.(*toyEval)
	if !ev.areaOver {
		return nil, ""
	}
	return []search.Prediction{
		{Param: arch.PPEs, Value: ev.pes / 2, Reduce: true, Factor: "area", Scaling: ev.area / m.areaCap, Why: "area over"},
	}, "area bottleneck: PE array"
}

func newToyProblem(m *toyModel, budget int) *search.Problem {
	var mu sync.Mutex
	cache := map[string]search.Costs{}
	return &search.Problem{
		Space:  m.space,
		Budget: budget,
		Evaluate: func(pt arch.Point) search.Costs {
			key := pt.Key()
			mu.Lock()
			defer mu.Unlock()
			if c, ok := cache[key]; ok {
				return c
			}
			c := m.evaluate(pt)
			cache[key] = c
			return c
		},
	}
}

func newToyModel() *toyModel {
	return &toyModel{
		space:    arch.EdgeSpace(),
		compWork: 2e6,
		dmaWork:  2e8,
		areaCap:  50,
	}
}

func TestExplorerConvergesOnToyDomain(t *testing.T) {
	m := newToyModel()
	ex := New(m)
	p := newToyProblem(m, 100)
	tr := ex.Run(p, rand.New(rand.NewSource(1)))

	if tr.Best == nil {
		t.Fatal("no feasible solution found")
	}
	// The DMA work is bandwidth-limited: the best reachable objective is
	// dmaWork / max BW = 2e8/51200 = 3906.25, with PEs scaled to match.
	if tr.BestObjective() > 3906.25*1.01 {
		t.Fatalf("best objective %v, want ~3906 (BW-limited optimum)", tr.BestObjective())
	}
	// Convergence must be far faster than the budget (the headline
	// property of the paper).
	if tr.Evaluations > 80 {
		t.Fatalf("used %d evaluations", tr.Evaluations)
	}
	d := p.Space.MustDecode(tr.Best)
	if d.PEs <= 64 || d.OffchipMBps <= 1024 {
		t.Fatalf("engine never scaled the bottleneck parameters: %v", d)
	}
}

func TestExplorerRespectsBudget(t *testing.T) {
	m := newToyModel()
	ex := New(m)
	tr := ex.Run(newToyProblem(m, 7), rand.New(rand.NewSource(1)))
	if tr.Evaluations > 7 {
		t.Fatalf("budget exceeded: %d", tr.Evaluations)
	}
}

func TestExplorerEmitsExplanations(t *testing.T) {
	m := newToyModel()
	ex := New(m)
	var buf bytes.Buffer
	ex.Opts.Log = &buf
	ex.Run(newToyProblem(m, 40), rand.New(rand.NewSource(1)))
	out := buf.String()
	for _, want := range []string{"T_comp", "T_dma", "new solution", "latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explanation missing %q", want)
		}
	}
}

func TestExplorerConstraintMitigation(t *testing.T) {
	// Start from an area-violating point; the engine must shrink PEs
	// back into the feasible region via MitigateConstraints.
	m := newToyModel()
	ex := New(m)
	p := newToyProblem(m, 60)
	init := m.space.Initial()
	init[arch.PPEs] = 6 // 4096 PEs -> area 49.2 + bw overage
	init[arch.PBW] = 9  // 51200 MBps -> area 59.4 total, over the cap
	p.Initial = init
	tr := ex.Run(p, rand.New(rand.NewSource(2)))
	if tr.Best == nil {
		t.Fatal("never recovered feasibility")
	}
	d := p.Space.MustDecode(tr.Best)
	if a := 0.012*float64(d.PEs) + 0.0002*float64(d.OffchipMBps); a > m.areaCap {
		t.Fatalf("best design still violates area: %v", a)
	}
}

func TestAggregationRules(t *testing.T) {
	preds := []search.Prediction{
		{Param: 0, Value: 100},
		{Param: 0, Value: 400},
		{Param: 0, Value: 250},
		{Param: 1, Value: 7},
	}
	e := &Explorer{}
	min := e.aggregate(Options{Aggregate: AggregateMin}, preds)
	if len(min) != 2 || min[0].Value != 100 || min[1].Value != 7 {
		t.Fatalf("min aggregation = %+v", min)
	}
	max := e.aggregate(Options{Aggregate: AggregateMax}, preds)
	if max[0].Value != 400 {
		t.Fatalf("max aggregation = %+v", max)
	}
	mean := e.aggregate(Options{Aggregate: AggregateMean}, preds)
	if mean[0].Value != 250 {
		t.Fatalf("mean aggregation = %+v", mean)
	}
}

func TestAggregationReduceDirection(t *testing.T) {
	// For reductions, "min aggressiveness" is the LARGEST value.
	preds := []search.Prediction{
		{Param: 0, Value: 100, Reduce: true},
		{Param: 0, Value: 400, Reduce: true},
	}
	e := &Explorer{}
	got := e.aggregate(Options{Aggregate: AggregateMin}, preds)
	if got[0].Value != 400 {
		t.Fatalf("reduce-min aggregation picked %d, want 400", got[0].Value)
	}
}

func TestMultiSubFunctionAggregationUsesMin(t *testing.T) {
	// Two sub-functions with different balances predict different PE
	// scalings; the engine must acquire the minimum (§4.4i).
	m := newToyModel()
	m.subs = []float64{0.9, 0.5}
	ex := New(m)
	var buf bytes.Buffer
	ex.Opts.Log = &buf
	tr := ex.Run(newToyProblem(m, 50), rand.New(rand.NewSource(3)))
	if tr.Best == nil {
		t.Fatal("no solution")
	}
}

func TestJointAcquisition(t *testing.T) {
	m := newToyModel()
	m.subs = []float64{0.9, 0.1} // one comp-bound, one DMA-bound sub
	ex := New(m)
	ex.Opts.JointAcquisition = true
	tr := ex.Run(newToyProblem(m, 60), rand.New(rand.NewSource(4)))
	if tr.Best == nil {
		t.Fatal("joint acquisition found nothing")
	}
}

func TestUpdateScenarios(t *testing.T) {
	e := New(nil)
	o := e.opts()
	space := arch.EdgeSpace()
	ptA, ptB := space.Initial(), space.Initial()
	ptB[0] = 1

	// Scenario 2: feasible candidates -> min objective x budget wins,
	// and a feasible incumbent is never regressed.
	cur := search.Costs{Feasible: true, Objective: 10, BudgetUtil: 0.5}
	evs := []evaluated{
		{ptA, search.Costs{Feasible: true, Objective: 8, BudgetUtil: 0.9}, nil},
		{ptB, search.Costs{Feasible: true, Objective: 9, BudgetUtil: 0.4}, nil},
	}
	next, costs, _ := e.update(o, cur, evs, func(evaluated) {})
	if next == nil || costs.Objective != 9 {
		t.Fatalf("update picked objective %v, want 9 (lower obj x budget)", costs.Objective)
	}
	worse := []evaluated{{ptA, search.Costs{Feasible: true, Objective: 11, BudgetUtil: 0.1}, nil}}
	if next, _, _ := e.update(o, cur, worse, func(evaluated) {}); next != nil {
		t.Fatal("feasible incumbent regressed")
	}

	// Scenario 1: all infeasible -> min constraints budget, only if it
	// beats the incumbent's.
	curBad := search.Costs{Feasible: false, BudgetUtil: 2.0}
	infeas := []evaluated{
		{ptA, search.Costs{Feasible: false, BudgetUtil: 1.5}, nil},
		{ptB, search.Costs{Feasible: false, BudgetUtil: 1.8}, nil},
	}
	next, costs, _ = e.update(o, curBad, infeas, func(evaluated) {})
	if next == nil || costs.BudgetUtil != 1.5 {
		t.Fatalf("infeasible update picked %v", costs.BudgetUtil)
	}
	if next, _, _ := e.update(o, search.Costs{Feasible: false, BudgetUtil: 1.0}, infeas, func(evaluated) {}); next != nil {
		t.Fatal("accepted a higher-budget infeasible candidate")
	}
}

func TestUpdateBlocksViolationIncrease(t *testing.T) {
	e := New(nil)
	o := e.opts()
	space := arch.EdgeSpace()
	pt := space.Initial()
	pred := &search.Prediction{Param: 0}
	cur := search.Costs{Feasible: false, BudgetUtil: 1.0, Violations: 1}
	blockedCalls := 0
	evs := []evaluated{{pt, search.Costs{Feasible: false, BudgetUtil: 2.0, Violations: 3}, pred}}
	e.update(o, cur, evs, func(ev evaluated) {
		if ev.costs.Violations > cur.Violations {
			blockedCalls++
		}
	})
	if blockedCalls != 1 {
		t.Fatalf("block callback calls = %d, want 1", blockedCalls)
	}
}

func TestOptsDefaults(t *testing.T) {
	e := New(nil)
	o := e.opts()
	if o.TopK != 5 || o.ThresholdScale != 0.5 || o.MaxBottlenecksPerSub != 2 || o.Patience != 5 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if AggregateMin.String() != "min" || AggregateMax.String() != "max" || AggregateMean.String() != "mean" {
		t.Fatal("aggregation names wrong")
	}
}
