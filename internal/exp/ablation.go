package exp

import (
	"context"
	"fmt"

	"xdse/internal/accelmodel"
	"xdse/internal/arch"
	"xdse/internal/dse"
	"xdse/internal/eval"
	"xdse/internal/search"
	"xdse/internal/workload"
)

// AblationResult is one Explainable-DSE variant's outcome.
type AblationResult struct {
	Variant     string
	BestLatency float64
	Feasible    bool
	Evaluations int
}

// RunAblations explores EfficientNetB0 (fixed dataflow, for speed) with
// Explainable-DSE variants that disable or alter the design decisions
// DESIGN.md calls out: the §4.4 aggregation rule, the top-K sub-function
// filter, the §4.6 budget-aware update, and the §4.5 one-parameter-per-
// candidate acquisition.
func RunAblations(ctx context.Context, cfg Config) []AblationResult {
	variants := []struct {
		name string
		opts dse.Options
	}{
		{"paper-defaults", dse.Options{}},
		{"aggregate-max", dse.Options{Aggregate: dse.AggregateMax}},
		{"aggregate-mean", dse.Options{Aggregate: dse.AggregateMean}},
		{"topK-1", dse.Options{TopK: 1}},
		{"topK-all", dse.Options{TopK: 1 << 20, ThresholdScale: 1e-9}},
		{"no-budget-aware-update", dse.Options{DisableBudgetAwareUpdate: true}},
		{"joint-acquisition", dse.Options{JointAcquisition: true}},
	}

	techs := make([]Technique, len(variants))
	for i, v := range variants {
		techs[i] = Technique{
			Name: "ExplainableDSE-" + v.name,
			Mode: eval.FixedDataflow,
			Make: func(space *arch.Space, cons eval.Constraints) search.Optimizer {
				ex := dse.New(accelmodel.New(space, cons))
				ex.Opts = v.opts
				return ex
			},
		}
	}
	c := RunCampaign(ctx, cfg, techs, []*workload.Model{workload.EfficientNetB0()}, 0)
	out := make([]AblationResult, len(c.Runs))
	for i, r := range c.Runs {
		out[i] = AblationResult{
			Variant:     variants[i].name,
			BestLatency: r.Trace.BestObjective(),
			Feasible:    r.Trace.Best != nil,
			Evaluations: r.Evaluations,
		}
	}
	return out
}

// ReportAblations renders the variant comparison.
func ReportAblations(cfg Config, results []AblationResult) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Ablations: Explainable-DSE design decisions (EfficientNetB0, fixed dataflow) ==\n")
	tb := newTable("Variant", "BestLatency(ms)", "Designs")
	for _, r := range results {
		lat := "-"
		if r.Feasible {
			lat = fmt.Sprintf("%.2f", r.BestLatency)
		}
		tb.add(r.Variant, lat, fmt.Sprintf("%d", r.Evaluations))
	}
	tb.write(w)
}
