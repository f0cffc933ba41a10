package perf

import (
	"testing"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// warmTestDesigns returns a few designs with distinct mapping sub-keys, from
// roomy to tight, to exercise warm-starting across near-miss designs.
func warmTestDesigns() []arch.Design {
	roomy := testDesign()
	tightL1 := roomy
	tightL1.L1Bytes = 64
	fewPEs := roomy
	fewPEs.PEs = 64
	slowNoC := roomy
	slowNoC.NoCWidthBits = 16
	for op := range slowNoC.PhysLinks {
		slowNoC.PhysLinks[op] = 4
	}
	return []arch.Design{roomy, tightL1, fewPEs, slowNoC}
}

func warmTestLayers() []workload.Layer {
	return []workload.Layer{
		{Kind: workload.Conv, Name: "c1", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.Conv, Name: "c2", K: 128, C: 64, Y: 7, X: 7, R: 3, S: 3, Stride: 2, Mult: 1},
		{Kind: workload.DWConv, Name: "dw", K: 96, C: 96, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.Gemm, Name: "g", K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1, Stride: 1, Mult: 1},
	}
}

func genCfg(d arch.Design, ctx *EvalContext, maxN int) mapping.GenConfig {
	return mapping.GenConfig{
		PEs: d.PEs, L1Bytes: d.L1Bytes, L2Bytes: d.L2Bytes(),
		MinN: 10, MaxN: maxN, BaseValid: ctx.Valid(),
	}
}

// TestWarmEnumerationBitIdentical is the strict warm-start contract: for
// every (design, layer) pair, enumeration with a cost lower bound — seeded
// by an incumbent found on a *different* design — must return exactly the
// cold run's best mapping, cycles, Found flag, and Evaluated count. Only
// CostCalls/LBPruned may differ.
func TestWarmEnumerationBitIdentical(t *testing.T) {
	designs := warmTestDesigns()
	for _, l := range warmTestLayers() {
		// Harvest incumbents: the cold best of each design.
		incumbents := make([]*mapping.Mapping, len(designs))
		colds := make([]mapping.Result, len(designs))
		for i, d := range designs {
			ctx := NewContext(d, l)
			colds[i] = mapping.EnumeratePruned(l, genCfg(d, ctx, 300), ctx.EvaluateCycles)
			if colds[i].Found {
				m := colds[i].Best
				incumbents[i] = &m
			}
		}
		for i, d := range designs {
			for j := range designs {
				if incumbents[j] == nil {
					continue
				}
				ctx := NewContext(d, l)
				cfg := genCfg(d, ctx, 300)
				cfg.CostLB = ctx.CostLowerBound
				cfg.Incumbent = incumbents[j]
				warm := mapping.EnumeratePruned(l, cfg, ctx.EvaluateCycles)
				cold := colds[i]
				if warm.Best != cold.Best || warm.Cycles != cold.Cycles ||
					warm.Found != cold.Found || warm.Evaluated != cold.Evaluated {
					t.Errorf("layer %s design %d incumbent-from %d: warm result diverges\ncold: %+v cycles=%v eval=%d\nwarm: %+v cycles=%v eval=%d (fallback=%v)",
						l.Name, i, j, cold.Best, cold.Cycles, cold.Evaluated,
						warm.Best, warm.Cycles, warm.Evaluated, warm.WarmFallback)
				}
				if warm.CostCalls > cold.CostCalls+1 {
					t.Errorf("layer %s design %d: warm made more cost calls (%d) than cold (%d) + probe",
						l.Name, i, warm.CostCalls, cold.CostCalls)
				}
			}
		}
	}
}

// TestWarmSelfIncumbentPrunes checks the intended speedup exists: probing a
// design's own best mapping should prune cost calls without changing the
// result (the exact situation of a near-miss re-search).
func TestWarmSelfIncumbentPrunes(t *testing.T) {
	d := testDesign()
	l := warmTestLayers()[0]
	ctx := NewContext(d, l)
	cold := mapping.EnumeratePruned(l, genCfg(d, ctx, 300), ctx.EvaluateCycles)
	if !cold.Found {
		t.Skip("no mapping found on roomy design")
	}
	m := cold.Best
	cfg := genCfg(d, ctx, 300)
	cfg.CostLB = ctx.CostLowerBound
	cfg.Incumbent = &m
	warm := mapping.EnumeratePruned(l, cfg, ctx.EvaluateCycles)
	if warm.Best != cold.Best || warm.Cycles != cold.Cycles || warm.Evaluated != cold.Evaluated {
		t.Fatal("self-incumbent warm run changed the result")
	}
	if warm.LBPruned == 0 {
		t.Fatal("self-incumbent warm run pruned nothing; the bound is not engaging")
	}
}
