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
		MinN: 10, MaxN: maxN, BaseValid: ctx.Valid,
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
			colds[i] = mapping.EnumeratePruned(l, genCfg(d, ctx, 300), ctx.EvaluateFill)
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
				warm := mapping.EnumeratePruned(l, cfg, ctx.EvaluateFill)
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
	cold := mapping.EnumeratePruned(l, genCfg(d, ctx, 300), ctx.EvaluateFill)
	if !cold.Found {
		t.Skip("no mapping found on roomy design")
	}
	m := cold.Best
	cfg := genCfg(d, ctx, 300)
	cfg.CostLB = ctx.CostLowerBound
	cfg.Incumbent = &m
	warm := mapping.EnumeratePruned(l, cfg, ctx.EvaluateFill)
	if warm.Best != cold.Best || warm.Cycles != cold.Cycles || warm.Evaluated != cold.Evaluated {
		t.Fatal("self-incumbent warm run changed the result")
	}
	if warm.LBPruned == 0 {
		t.Fatal("self-incumbent warm run pruned nothing; the bound is not engaging")
	}
}

// warmWork is the part of a warm search's Result that records its work
// rather than its answer.
type warmWork struct {
	costCalls, lbPruned int
	fallback            bool
}

// warmWorkGolden[layer][design][incumbent-from] is the work of every warm
// run of TestWarmEnumerationBitIdentical's grid, as measured when the strict
// fallback still kept one skip record per candidate. Recording skips per
// spatial base must re-evaluate exactly the candidates that list held.
var warmWorkGolden = map[string][4][4]warmWork{
	"c1": {
		{{76, 225, false}, {76, 225, false}, {76, 225, false}, {76, 225, false}},
		{{76, 225, false}, {76, 225, false}, {76, 225, false}, {76, 225, false}},
		{{2, 299, false}, {2, 299, false}, {301, 300, true}, {2, 299, false}},
		{{76, 225, false}, {76, 225, false}, {76, 225, false}, {76, 225, false}},
	},
	"c2": {
		{{226, 75, false}, {226, 75, false}, {226, 75, false}, {226, 75, false}},
		{{226, 75, false}, {226, 75, false}, {226, 75, false}, {226, 75, false}},
		{{2, 299, false}, {2, 299, false}, {301, 300, true}, {2, 299, false}},
		{{226, 75, false}, {226, 75, false}, {226, 75, false}, {226, 75, false}},
	},
	"dw": {
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
	},
	"g": {
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
		{{301, 0, false}, {301, 0, false}, {301, 0, false}, {301, 0, false}},
	},
}

// TestWarmEnumerationWorkGolden pins the search's work, not only its
// answer: on TestWarmEnumerationBitIdentical's grid, every warm run's
// CostCalls, LBPruned and WarmFallback equal warmWorkGolden.
func TestWarmEnumerationWorkGolden(t *testing.T) {
	designs := warmTestDesigns()
	for _, l := range warmTestLayers() {
		golden, ok := warmWorkGolden[l.Name]
		if !ok {
			t.Fatalf("layer %s has no golden work", l.Name)
		}
		incumbents := make([]*mapping.Mapping, len(designs))
		for i, d := range designs {
			ctx := NewContext(d, l)
			if cold := mapping.EnumeratePruned(l, genCfg(d, ctx, 300), ctx.EvaluateFill); cold.Found {
				incumbents[i] = &cold.Best
			}
		}
		for i, d := range designs {
			for j, inc := range incumbents {
				if inc == nil {
					t.Fatalf("layer %s: design %d has no incumbent to offer", l.Name, j)
				}
				ctx := NewContext(d, l)
				cfg := genCfg(d, ctx, 300)
				cfg.CostLB = ctx.CostLowerBound
				cfg.Incumbent = inc
				warm := mapping.EnumeratePruned(l, cfg, ctx.EvaluateFill)
				if got := (warmWork{warm.CostCalls, warm.LBPruned, warm.WarmFallback}); got != golden[i][j] {
					t.Errorf("layer %s design %d incumbent-from %d: work %+v, want %+v", l.Name, i, j, got, golden[i][j])
				}
			}
		}
	}
}

// TestWarmFallbackSearchBytes pins the bytes, not only the mallocs, of a
// real-cost warm search that falls back: layer c2 on the fewPEs design,
// warm-started from its own best, skips every candidate on the probe's
// account and re-evaluates them all. Skips are recorded once per spatial
// base, so the search stays within a few KiB; a record per skipped
// candidate cost about 225 KiB here while staying under the malloc bounds.
func TestWarmFallbackSearchBytes(t *testing.T) {
	d := warmTestDesigns()[2]
	l := warmTestLayers()[1]
	ctx := NewContext(d, l)
	cold := mapping.EnumeratePruned(l, genCfg(d, ctx, 300), ctx.EvaluateFill)
	if !cold.Found {
		t.Fatal("no mapping found on the fewPEs design")
	}
	cfg := genCfg(d, ctx, 300)
	cfg.CostLB = ctx.CostLowerBound
	cfg.Incumbent = &cold.Best
	if warm := mapping.EnumeratePruned(l, cfg, ctx.EvaluateFill); !warm.WarmFallback {
		t.Fatal("the self-incumbent search no longer falls back; pick a case that does")
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapping.EnumeratePruned(l, cfg, ctx.EvaluateFill)
		}
	})
	if bytes := r.AllocedBytesPerOp(); bytes > 16<<10 {
		t.Fatalf("a warm search that falls back allocates %d B; its skip records have regressed", bytes)
	}
}
