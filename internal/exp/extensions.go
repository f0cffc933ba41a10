package exp

import (
	"context"
	"fmt"

	"xdse/internal/accelmodel"
	"xdse/internal/arch"
	"xdse/internal/dse"
	"xdse/internal/eval"
	"xdse/internal/opt"
	"xdse/internal/search"
	"xdse/internal/workload"
)

// This file holds the extension experiments beyond the paper's figures:
// the energy objective (the paper presents latency as its running example
// and notes the API generalizes), multi-workload exploration (§4.4's
// multiple-workload aggregation), and the §G joint-vs-two-stage codesign
// comparison.

// EnergyRun is one objective's exploration outcome.
type EnergyRun struct {
	Objective   eval.Objective
	LatencyMs   float64
	EnergyMJ    float64
	Feasible    bool
	Evaluations int
	Design      arch.Design
}

// RunEnergyObjective explores MobileNetV2 twice with Explainable-DSE: once
// minimizing latency and once minimizing energy, demonstrating that the
// same engine drives a different bottleneck model (the additive energy
// tree) toward a different corner of the space.
func RunEnergyObjective(ctx context.Context, cfg Config) []EnergyRun {
	objs := []eval.Objective{eval.MinLatency, eval.MinEnergy}
	techs := make([]Technique, len(objs))
	for i, obj := range objs {
		techs[i] = Technique{
			Name:      "ExplainableDSE-" + obj.String(),
			Mode:      eval.FixedDataflow,
			Objective: obj,
			Make: func(space *arch.Space, cons eval.Constraints) search.Optimizer {
				model := accelmodel.New(space, cons)
				model.Objective = obj
				return dse.New(model)
			},
		}
	}
	c := RunCampaign(ctx, cfg, techs, []*workload.Model{workload.MobileNetV2()}, 0)
	out := make([]EnergyRun, len(c.Runs))
	for i, r := range c.Runs {
		out[i] = EnergyRun{Objective: objs[i], Evaluations: r.Evaluations}
		if best := r.Best(); best != nil {
			out[i].LatencyMs = best.LatencyMs
			out[i].EnergyMJ = best.EnergyMJ
			out[i].Feasible = true
			out[i].Design = best.Design
		}
	}
	return out
}

// ReportEnergyObjective renders the latency/energy trade-off.
func ReportEnergyObjective(cfg Config, runs []EnergyRun) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Extension: objective generality (MobileNetV2, Explainable-DSE) ==\n")
	tb := newTable("Objective", "Latency(ms)", "Energy(mJ)", "Designs", "Chosen design")
	for _, r := range runs {
		if !r.Feasible {
			tb.add(r.Objective.String(), "-", "-", fmt.Sprintf("%d", r.Evaluations), "-")
			continue
		}
		tb.add(r.Objective.String(),
			fmt.Sprintf("%.2f", r.LatencyMs),
			fmt.Sprintf("%.1f", r.EnergyMJ),
			fmt.Sprintf("%d", r.Evaluations),
			r.Design.String())
	}
	tb.write(w)
}

// MultiWorkloadRun compares a single codesigned accelerator serving several
// DNNs against per-model designs.
type MultiWorkloadRun struct {
	Label       string
	Models      []string
	LatencyMs   float64 // summed across workloads
	AreaMM2     float64
	Feasible    bool
	Evaluations int
}

// RunMultiWorkload explores one accelerator for {ResNet18, MobileNetV2}
// (the §4.4 multi-workload aggregation path) and, for reference, dedicated
// per-model designs.
func RunMultiWorkload(ctx context.Context, cfg Config) []MultiWorkloadRun {
	models := []*workload.Model{workload.ResNet18(), workload.MobileNetV2()}
	tech := explainable("ExplainableDSE-FixDF", eval.FixedDataflow)
	cfg = cfg.withCache()

	explore := func(label string, ms ...*workload.Model) MultiWorkloadRun {
		r := RunModels(ctx, cfg, tech, ms, 0)
		run := MultiWorkloadRun{Label: label, Evaluations: r.Evaluations}
		for _, m := range ms {
			run.Models = append(run.Models, m.Name)
		}
		if best := r.Best(); best != nil {
			run.LatencyMs = best.LatencyMs
			run.AreaMM2 = best.AreaMM2
			run.Feasible = true
		}
		return run
	}

	out := []MultiWorkloadRun{explore("shared accelerator", models...)}
	for _, m := range models {
		out = append(out, explore("dedicated: "+m.Name, m))
	}
	return out
}

// ReportMultiWorkload renders the shared-vs-dedicated comparison.
func ReportMultiWorkload(cfg Config, runs []MultiWorkloadRun) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Extension: multi-workload exploration (one design for several DNNs, §4.4) ==\n")
	tb := newTable("Exploration", "Workloads", "SumLatency(ms)", "Area(mm2)", "Designs")
	for _, r := range runs {
		lat := "-"
		area := "-"
		if r.Feasible {
			lat = fmt.Sprintf("%.2f", r.LatencyMs)
			area = fmt.Sprintf("%.1f", r.AreaMM2)
		}
		tb.add(r.Label, fmt.Sprintf("%v", r.Models), lat, area, fmt.Sprintf("%d", r.Evaluations))
	}
	tb.write(w)
}

// JointRun is one codesign-organization's outcome (§G).
type JointRun struct {
	Label        string
	LatencyMs    float64
	Feasible     bool
	Evaluations  int
	MapEvalTotal int
}

// RunJointVsTwoStage compares the §G codesign organizations with random
// search on EfficientNetB0: joint acquisition (every hardware trial pairs
// with a single random mapping per layer — no inner optimization) versus
// the two-stage partitioned exploration (an inner mapping optimization per
// hardware trial).
func RunJointVsTwoStage(ctx context.Context, cfg Config) []JointRun {
	model := workload.EfficientNetB0()
	cfg = cfg.withCache()
	explore := func(label, name string, mapTrials int) JointRun {
		rcfg := cfg
		rcfg.MapTrials = mapTrials
		tech := blackBox(name, eval.RandomMappings, func() search.Optimizer { return opt.Random{} })
		r := RunOne(ctx, rcfg, tech, model, 0)
		run := JointRun{Label: label, Evaluations: r.Evaluations}
		if best := r.Best(); best != nil {
			run.LatencyMs = best.LatencyMs
			run.Feasible = true
		}
		// Total mapping evaluations across all visited designs.
		for _, s := range r.Trace.Steps {
			if res, ok := search.ResolveRaw(s.Costs.Raw).(*eval.Result); ok {
				run.MapEvalTotal += res.MapEvaluations
			}
		}
		return run
	}
	return []JointRun{
		explore("joint (1 mapping/trial)", "RandomSearch-Joint", 1),
		explore(fmt.Sprintf("two-stage (%d mapping trials)", cfg.MapTrials), "RandomSearch-TwoStage", cfg.MapTrials),
	}
}

// ReportJointVsTwoStage renders the §G comparison.
func ReportJointVsTwoStage(cfg Config, runs []JointRun) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Extension (§G): joint vs two-stage codesign organization (random search, EfficientNetB0) ==\n")
	tb := newTable("Organization", "BestLatency(ms)", "HW designs", "Mapping evals")
	for _, r := range runs {
		lat := "-"
		if r.Feasible {
			lat = fmt.Sprintf("%.2f", r.LatencyMs)
		}
		tb.add(r.Label, lat, fmt.Sprintf("%d", r.Evaluations), fmt.Sprintf("%d", r.MapEvalTotal))
	}
	tb.write(w)
}
