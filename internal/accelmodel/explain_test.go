package accelmodel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"xdse/internal/bottleneck"
	"xdse/internal/eval"
)

// oddFloats are the contributions, scalings and excesses the line writers
// are checked on besides random ones: signed zeros, infinities, NaN,
// subnormals, extremes and values that round at the printed precision.
var oddFloats = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, 1e300, -1e300, 1e-300, math.MaxFloat64,
	0.005, 0.015, 0.125, 1.005, 2.675, 0.4999999, 0.995, 63.999, 64, 1e21,
}

func oddFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return oddFloats[rng.Intn(len(oddFloats))]
	}
	return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(13)-6))
}

// TestLineWritersMatchFmt compares the mitigation and shrink lines with the
// fmt formats they replaced.
func TestLineWritersMatchFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	names := []string{"T_comp", "T_noc", "E_dram", "", "area", "power", "phys_unicast_Ord"}
	for range 20000 {
		bn := bottleneck.Bottleneck{
			Factor:       &bottleneck.Node{Name: names[rng.Intn(len(names))]},
			Contribution: oddFloat(rng),
			Scaling:      oddFloat(rng),
		}
		why := names[rng.Intn(len(names))] + " bound: 100% of it"
		var got strings.Builder
		writeMitigation(&got, bn, why)
		want := fmt.Sprintf("mitigate %s (%.0f%%, s=%.2f): %s\n", bn.Factor.Name, bn.Contribution*100, bn.Scaling, why)
		if got.String() != want {
			t.Fatalf("writeMitigation = %q, want %q", got.String(), want)
		}

		label, name := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
		s := oddFloat(rng)
		cur, want2 := rng.Intn(1<<20)-1<<10, rng.Int()-rng.Int()
		if g, w := shrinkWhy(label, s, name, cur, want2), fmt.Sprintf("%s violated (%.2fx): shrink %s %d -> %d", label, s, name, cur, want2); g != w {
			t.Fatalf("shrinkWhy = %q, want %q", g, w)
		}
	}
}

// TestExplanationsMatchFmtFormats checks every explanation of the latency,
// MinEnergy and constraint paths over many evaluated designs: the rendered
// tree followed by the mitigation lines in their old fmt formats, rebuilt
// from the returned predictions.
func TestExplanationsMatchFmtFormats(t *testing.T) {
	space, m, ev := setup()
	rng := rand.New(rand.NewSource(29))
	var lines, shrinks int
	for range 60 {
		r := ev.Evaluate(space.Random(rng))
		for _, obj := range []eval.Objective{eval.MinLatency, eval.MinEnergy} {
			m.Objective = obj
			for sub := range m.SubCosts(r) {
				mi, li := subRef(r, sub)
				le := r.Models[mi].Layers[li]
				if !le.Perf.Valid {
					continue // the incompatible-mapping path has no tree
				}
				preds, got := m.MitigateObjective(r, sub, 2)
				tree := LatencyTree(le, r.Design)
				if obj == eval.MinEnergy {
					tree = EnergyTree(le, r.Energy)
				}
				want := bottleneck.Render(tree)
				for _, p := range preds {
					want += fmt.Sprintf("mitigate %s (%.0f%%, s=%.2f): %s\n", p.Factor, p.Contribution*100, p.Scaling, p.Why)
					lines++
				}
				if got != want {
					t.Fatalf("%v sub-function %d explanation:\n%s\nwant:\n%s", obj, sub, got, want)
				}
			}
		}

		preds, got := m.MitigateConstraints(r)
		var want strings.Builder
		for _, v := range []struct {
			over  bool
			label string
			tree  *bottleneck.Node
		}{
			{r.AreaMM2 > m.Constraints.MaxAreaMM2, "area", AreaTree(r.Energy)},
			{r.PowerW > m.Constraints.MaxPowerW, "power", PowerTree(r.Energy)},
		} {
			if !v.over {
				continue
			}
			want.WriteString(bottleneck.Render(v.tree))
			for _, p := range preds {
				if p.Factor != v.label {
					continue
				}
				why := fmt.Sprintf("%s violated (%.2fx): shrink %s %d -> %d",
					p.Factor, p.Scaling, space.Params[p.Param].Name, m.currentPhysical(p.Param, r.Design), p.Value)
				if p.Why != why {
					t.Fatalf("shrink reason %q, want %q", p.Why, why)
				}
				fmt.Fprintf(&want, "%s\n", why)
				shrinks++
			}
		}
		if got != want.String() {
			t.Fatalf("constraint explanation:\n%s\nwant:\n%s", got, want.String())
		}
	}
	if lines == 0 || shrinks == 0 {
		t.Fatalf("checked %d mitigation and %d shrink lines; both paths must run", lines, shrinks)
	}
}

// TestSharedParamsStayPut checks that trees share their dictionary entries
// read-only: growing one node's parameters leaves every other tree's alone.
func TestSharedParamsStayPut(t *testing.T) {
	space, _, ev := setup()
	r := ev.Evaluate(compatiblePoint(space))
	le := r.Models[0].Layers[0]
	a, b := LatencyTree(le, r.Design), LatencyTree(le, r.Design)
	a.Find(FactorDMA).WithParams("extra")
	a.Find(FactorComp).WithParams("extra")
	if got := strings.Join(b.Find(FactorDMA).Params, " "); got != "offchip_MBps L2_KB" {
		t.Fatalf("T_dma params of another tree = %q", got)
	}
	if got := strings.Join(b.Find(FactorComp).Params, " "); got != "PEs" {
		t.Fatalf("T_comp params of another tree = %q", got)
	}
}
