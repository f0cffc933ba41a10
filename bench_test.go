// The root benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index) as testing.B
// benchmarks, plus the ablation benches for the design decisions DESIGN.md
// calls out. Budgets are scaled down so a full -bench=. pass completes in
// minutes; XDSE_FULL=1 restores paper scale.
//
// Reported custom metrics: best feasible latency (ms), designs evaluated,
// and feasible-acquisition fractions, so `go test -bench` output captures
// the shape of each result, not just the wall time of regenerating it.
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"xdse/internal/accelmodel"
	"xdse/internal/arch"
	"xdse/internal/dse"
	"xdse/internal/eval"
	"xdse/internal/exp"
	"xdse/internal/mapping"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// benchConfig is the reduced-budget configuration used by all benches.
func benchConfig() exp.Config {
	cfg := exp.FromEnv()
	if cfg.Budget == 300 { // reduced mode: shrink further for bench loops
		cfg.Budget = 150
		cfg.CodesignBudget = 50
		cfg.MapTrials = 200
	}
	cfg.Out = io.Discard
	return cfg
}

// reportTrace publishes trace metrics on the bench.
func reportRun(b *testing.B, r exp.Run) {
	b.Helper()
	if r.Trace.Best != nil {
		b.ReportMetric(r.Trace.BestObjective(), "ms-latency")
	}
	b.ReportMetric(float64(r.Evaluations), "designs")
	b.ReportMetric(r.Trace.FeasibleFraction()*100, "%feasible")
}

// explainTech returns the named technique from the roster.
func technique(name string) exp.Technique {
	for _, t := range exp.AllTechniques() {
		if t.Name == name {
			return t
		}
	}
	panic("unknown technique " + name)
}

// BenchmarkFig3 regenerates Fig. 3 (efficiency/feasibility/agility of the
// EfficientNetB0 exploration) for the two headline techniques.
func BenchmarkFig3(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{"HyperMapper2.0-FixDF", "ExplainableDSE-FixDF"} {
		b.Run(name, func(b *testing.B) {
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), cfg, technique(name), workload.EfficientNetB0(), cfg.Budget)
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkFig4 regenerates the toy two-parameter exploration of Fig. 4.
func BenchmarkFig4(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		runs := exp.RunFig4(context.Background(), cfg)
		if i == b.N-1 && runs[1].Trace.Best != nil {
			b.ReportMetric(runs[1].Trace.BestObjective(), "ms-latency")
		}
	}
}

// BenchmarkFig9 regenerates one column of the Fig. 9 static exploration
// (ResNet18) across the technique roster classes.
func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{
		"RandomSearch-FixDF", "HyperMapper2.0-FixDF", "ExplainableDSE-FixDF",
		"RandomSearch-Codesign", "ExplainableDSE-Codesign",
	} {
		b.Run(name, func(b *testing.B) {
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), cfg, technique(name), workload.ResNet18(), 0)
				if last.Evaluations == 0 {
					b.Fatal("no evaluations")
				}
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkFig10 measures the exploration wall time per technique (the bars
// of Fig. 10) — the bench time per op IS the figure's quantity.
func BenchmarkFig10(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{"HyperMapper2.0-FixDF", "ExplainableDSE-FixDF"} {
		b.Run(name, func(b *testing.B) {
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), cfg, technique(name), workload.MobileNetV2(), 0)
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkFig11 regenerates the latency-over-iterations curves for the
// Transformer workload.
func BenchmarkFig11(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{"RandomSearch-FixDF", "ExplainableDSE-FixDF"} {
		b.Run(name, func(b *testing.B) {
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), cfg, technique(name), workload.Transformer(), 0)
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkFig12 regenerates the feasibility-of-acquisitions analysis.
func BenchmarkFig12(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{"ReinforcementLearning-FixDF", "ExplainableDSE-FixDF"} {
		b.Run(name, func(b *testing.B) {
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), cfg, technique(name), workload.ResNet50(), 0)
			}
			b.ReportMetric(last.Trace.AreaPowerFraction()*100, "%feasible-ap")
			b.ReportMetric(last.Trace.FeasibleFraction()*100, "%feasible-all")
		})
	}
}

// BenchmarkTable2 regenerates the 100-iteration dynamic DSE of Table 2.
func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{"RandomSearch-FixDF", "HyperMapper2.0-FixDF", "ExplainableDSE-FixDF"} {
		b.Run(name, func(b *testing.B) {
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), cfg, technique(name), workload.BERT(), cfg.DynamicBudget)
			}
			reportRun(b, last)
		})
	}
}

// BenchmarkTable3 reports the per-acquisition objective reduction metric.
func BenchmarkTable3(b *testing.B) {
	cfg := benchConfig()
	for _, name := range []string{"RandomSearch-FixDF", "ExplainableDSE-FixDF"} {
		b.Run(name, func(b *testing.B) {
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), cfg, technique(name), workload.VGG16(), 0)
			}
			b.ReportMetric(last.Trace.ReductionPerAttempt(), "%reduction/attempt")
		})
	}
}

// BenchmarkTable7 regenerates the mapping-space size analysis.
func BenchmarkTable7(b *testing.B) {
	cfg := benchConfig()
	cfg.Models = workload.Suite()
	for i := 0; i < b.N; i++ {
		rows := exp.RunTable7(cfg)
		if len(rows) != 11 {
			b.Fatal("table7 incomplete")
		}
	}
}

// BenchmarkFig14 regenerates the Edge TPU / Eyeriss case-study comparison.
func BenchmarkFig14(b *testing.B) {
	cfg := benchConfig()
	cfg.CodesignBudget = 30
	var rows []exp.Fig14Row
	for i := 0; i < b.N; i++ {
		rows = exp.RunFig14(context.Background(), cfg)
	}
	if len(rows) > 0 && rows[0].DSEFPS > 0 {
		b.ReportMetric(rows[0].DSEFPS, "fps")
	}
}

// BenchmarkFig15 regenerates the black-box-mapper comparison on ResNet18.
func BenchmarkFig15(b *testing.B) {
	cfg := benchConfig()
	var res []exp.Fig15Result
	for i := 0; i < b.N; i++ {
		res = exp.RunFig15(cfg)
	}
	for _, r := range res {
		if r.TotalMs > 0 {
			b.ReportMetric(r.TotalMs, "ms-"+r.Technique)
		}
	}
}

// --- Ablation benches for the design decisions DESIGN.md calls out ---

func benchAblation(b *testing.B, opts dse.Options, model *workload.Model, budget int) {
	b.Helper()
	var best float64
	var evals int
	for i := 0; i < b.N; i++ {
		space := arch.EdgeSpace()
		cons := eval.EdgeConstraints()
		ev := eval.New(eval.Config{
			Space: space, Models: []*workload.Model{model}, Constraints: cons,
			Mode: eval.FixedDataflow, Seed: 1,
		})
		ex := dse.New(accelmodel.New(space, cons))
		ex.Opts = opts
		tr := ex.Run(ev.Problem(budget), rand.New(rand.NewSource(1)))
		best = tr.BestObjective()
		evals = ev.Evaluations()
	}
	b.ReportMetric(best, "ms-latency")
	b.ReportMetric(float64(evals), "designs")
}

// BenchmarkAblationAggregation compares the §4.4(i) aggregation rules.
func BenchmarkAblationAggregation(b *testing.B) {
	for _, agg := range []dse.Aggregation{dse.AggregateMin, dse.AggregateMax, dse.AggregateMean} {
		b.Run(agg.String(), func(b *testing.B) {
			benchAblation(b, dse.Options{Aggregate: agg}, workload.EfficientNetB0(), 150)
		})
	}
}

// BenchmarkAblationTopK compares the §4.4(ii) sub-function filtering.
func BenchmarkAblationTopK(b *testing.B) {
	for _, k := range []int{1, 5, 1 << 20} {
		name := map[int]string{1: "top1", 5: "top5-paper", 1 << 20: "all"}[k]
		b.Run(name, func(b *testing.B) {
			opts := dse.Options{TopK: k}
			if k > 5 {
				opts.ThresholdScale = 1e-9
			}
			benchAblation(b, opts, workload.EfficientNetB0(), 150)
		})
	}
}

// BenchmarkAblationBudget compares the §4.6 constraint-budget-aware update
// against plain greedy feasible-min.
func BenchmarkAblationBudget(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "budget-aware"
		if disable {
			name = "greedy"
		}
		b.Run(name, func(b *testing.B) {
			benchAblation(b, dse.Options{DisableBudgetAwareUpdate: disable}, workload.ResNet50(), 150)
		})
	}
}

// BenchmarkAblationAcquisition compares §4.5 one-parameter-per-candidate
// acquisition against joint updates.
func BenchmarkAblationAcquisition(b *testing.B) {
	for _, joint := range []bool{false, true} {
		name := "per-parameter"
		if joint {
			name = "joint"
		}
		b.Run(name, func(b *testing.B) {
			benchAblation(b, dse.Options{JointAcquisition: joint}, workload.MobileNetV2(), 150)
		})
	}
}

// BenchmarkBatchEvaluation compares a serial exploration against the same
// exploration with the batch-evaluation worker pool enabled. The traces are
// bit-identical by the determinism contract; on multi-core machines the
// pooled run evaluates each attempt's candidate batch concurrently, so the
// wall-time ratio is the batch layer's speedup on real evaluations.
func BenchmarkBatchEvaluation(b *testing.B) {
	cfg := benchConfig()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			var last exp.Run
			for i := 0; i < b.N; i++ {
				last = exp.RunOne(context.Background(), c, technique("ExplainableDSE-Codesign"), workload.ResNet18(), 30)
			}
			reportRun(b, last)
		})
	}
}

// --- Substrate microbenchmarks: the costs behind every DSE iteration ---

// BenchmarkPerfEvaluate measures one analytical cost-model evaluation.
func BenchmarkPerfEvaluate(b *testing.B) {
	space := arch.EdgeSpace()
	d := space.MustDecode(space.Initial())
	l := workload.ResNet18().Layers[1]
	m := mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		perf.NewContext(d, l).Evaluate(m)
	}
}

// BenchmarkMappingSearch measures one per-layer mapping optimization.
func BenchmarkMappingSearch(b *testing.B) {
	space := arch.EdgeSpace()
	pt := space.Initial()
	pt[arch.PPEs] = 3
	pt[arch.PL1] = 4
	pt[arch.PL2] = 3
	for op := 0; op < arch.NumOperands; op++ {
		pt[arch.PVirt0+op] = 3
	}
	d := space.MustDecode(pt)
	l := workload.ResNet18().Layers[1]
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perf.SearchPruned(nil, d, l, mapping.GenConfig{MaxN: 300})
		}
	})
	b.Run("random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			mapping.RandomSearch(l, 300, rng, perf.NewContext(d, l).EvaluateFill)
		}
	})
}

// BenchmarkDesignEvaluation measures one full design evaluation per mode.
func BenchmarkDesignEvaluation(b *testing.B) {
	for _, mode := range []eval.MapperMode{eval.FixedDataflow, eval.PrunedMappings} {
		b.Run(mode.String(), func(b *testing.B) {
			space := arch.EdgeSpace()
			for i := 0; i < b.N; i++ {
				ev := eval.New(eval.Config{
					Space: space, Models: []*workload.Model{workload.ResNet18()},
					Constraints: eval.EdgeConstraints(), Mode: mode, MapTrials: 200, Seed: 1,
				})
				ev.Evaluate(space.Initial())
			}
		})
	}
}
