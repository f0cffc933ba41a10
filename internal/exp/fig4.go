package exp

import (
	"context"
	"fmt"

	"xdse/internal/arch"
	"xdse/internal/eval"
	"xdse/internal/opt"
	"xdse/internal/search"
	"xdse/internal/workload"
)

// Fig4Space builds the toy two-parameter space of Fig. 4: only the PE count
// and the shared-memory (L2) size vary; every other parameter is pinned to
// a sensible mid-range value so the walk is about compute-vs-memory
// balancing, as in the paper's illustration.
func Fig4Space() *arch.Space {
	s := arch.EdgeSpace()
	pin := func(i, value int) {
		s.Params[i].Values = []int{value}
	}
	pin(arch.PL1, 256)
	pin(arch.PBW, 8192)
	pin(arch.PNoCWidth, 64)
	for op := 0; op < arch.NumOperands; op++ {
		pin(arch.PPhys0+op, 16)  // PEs/4 physical unicast links
		pin(arch.PVirt0+op, 512) // ample time-sharing
	}
	return s
}

// RunFig4 explores the toy space for the single ResNet CONV5_2b layer with
// HyperMapper 2.0 and Explainable-DSE.
func RunFig4(ctx context.Context, cfg Config) []Run {
	hm := blackBox("HyperMapper2.0", eval.FixedDataflow, func() search.Optimizer {
		return opt.HyperMapper{Warmup: 8, Pool: 200}
	})
	ex := explainable("ExplainableDSE", eval.FixedDataflow)
	hm.Space, ex.Space = Fig4Space, Fig4Space
	return RunCampaign(ctx, cfg, []Technique{hm, ex}, []*workload.Model{workload.ResNetConv52b()}, 30).Runs
}

// ReportFig4 renders each technique's acquisition walk over (PEs, L2).
func ReportFig4(cfg Config, runs []Run) {
	w := cfg.out()
	space := Fig4Space()
	fmt.Fprintf(w, "\n== Fig4: toy DSE of #PEs x L2 size for ResNet CONV5_2b ==\n")
	for _, run := range runs {
		fmt.Fprintf(w, "\n-- %s --\n", run.Technique)
		tb := newTable("Iter", "PEs", "L2(KB)", "Latency(ms)", "BestSoFar(ms)")
		for _, s := range run.Trace.Steps {
			d := space.MustDecode(s.Point)
			lat := "-"
			if s.Costs.Feasible {
				lat = fmt.Sprintf("%.3f", s.Costs.Objective)
			}
			best := "-"
			if s.BestSoFar < 1e17 {
				best = fmt.Sprintf("%.3f", s.BestSoFar)
			}
			tb.add(fmt.Sprintf("%d", s.Iter), fmt.Sprintf("%d", d.PEs),
				fmt.Sprintf("%d", d.L2KB), lat, best)
		}
		tb.write(w)
	}
}
