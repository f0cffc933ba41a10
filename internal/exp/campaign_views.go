package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"xdse/internal/obs"
	"xdse/internal/workload"
)

// This file renders the campaign-derived views of the paper: Fig. 9 (best
// latency per technique/model), Fig. 10 (search time and iterations),
// Fig. 12 (feasibility of acquisitions), Table 2 (dynamic 100-iteration
// DSE), and Table 3 (per-attempt objective reduction).

// modelNames extracts the model order of a config.
func modelNames(models []*workload.Model) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.Name
	}
	return out
}

// ReportFig9 renders the best feasible latency (ms) achieved by every
// technique on every model — the Fig. 9 result (and, when the campaign ran
// at DynamicBudget, the Table 2 result).
func ReportFig9(cfg Config, c *Campaign, title string) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== %s: best feasible latency (ms; '-' = none found) ==\n", title)
	names := modelNames(cfg.Models)
	header := append([]string{"Technique"}, shortNames(names)...)
	tb := newTable(header...)
	for _, tech := range techniqueOrder(c) {
		row := []string{tech}
		for _, m := range names {
			if r := c.Get(tech, m); r != nil {
				row = append(row, fmtLatency(r.Trace))
			} else {
				row = append(row, "")
			}
		}
		tb.add(row...)
	}
	tb.write(w)
}

// ReportFig10 renders exploration wall-clock time and evaluated designs —
// the Fig. 10 result (bars = time, triangles = designs evaluated).
func ReportFig10(cfg Config, c *Campaign) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Fig10: search time (s) / designs evaluated ==\n")
	names := modelNames(cfg.Models)
	tb := newTable(append([]string{"Technique"}, shortNames(names)...)...)
	for _, tech := range techniqueOrder(c) {
		row := []string{tech}
		for _, m := range names {
			if r := c.Get(tech, m); r != nil {
				row = append(row, fmt.Sprintf("%.1fs/%d", r.Elapsed.Seconds(), r.Evaluations))
			} else {
				row = append(row, "")
			}
		}
		tb.add(row...)
	}
	tb.write(w)
}

// ReportFig12 renders the fraction of acquisitions meeting (a) area+power
// and (b) all constraints — the Fig. 12 feasibility analysis.
func ReportFig12(cfg Config, c *Campaign) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Fig12: feasible acquisitions %% (area+power / all constraints) ==\n")
	names := modelNames(cfg.Models)
	tb := newTable(append([]string{"Technique"}, shortNames(names)...)...)
	for _, tech := range techniqueOrder(c) {
		row := []string{tech}
		for _, m := range names {
			if r := c.Get(tech, m); r != nil {
				row = append(row, fmt.Sprintf("%.0f%%/%.0f%%",
					r.Trace.AreaPowerFraction()*100, r.Trace.FeasibleFraction()*100))
			} else {
				row = append(row, "")
			}
		}
		tb.add(row...)
	}
	tb.write(w)
}

// ReportTable3 renders the per-acquisition objective reduction (%), the
// Table 3 metric ("N/A" when no feasible solution was ever found).
func ReportTable3(cfg Config, c *Campaign) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Table3: objective reduction per acquisition attempt (%%) ==\n")
	names := modelNames(cfg.Models)
	tb := newTable(append([]string{"Technique"}, append(shortNames(names), "Average")...)...)
	for _, tech := range techniqueOrder(c) {
		row := []string{tech}
		sum, n := 0.0, 0
		for _, m := range names {
			r := c.Get(tech, m)
			if r == nil {
				row = append(row, "")
				continue
			}
			if r.Trace.Best == nil {
				row = append(row, "N/A")
				continue
			}
			red := r.Trace.ReductionPerAttempt()
			row = append(row, fmt.Sprintf("%.2f%%", red))
			sum += red
			n++
		}
		if n > 0 {
			row = append(row, fmt.Sprintf("%.2f%%", sum/float64(n)))
		} else {
			row = append(row, "N/A")
		}
		tb.add(row...)
	}
	tb.write(w)
}

// ReportEvalStats renders the evaluation-layer instrumentation of a
// campaign, aggregated per technique across models: unique design
// evaluations, memoized cache hits (with memo evictions), in-flight
// deduplications under the batch pool, layer record-map and
// persistent-store hits, mapping-search trials against actual cost-model
// calls, evaluation wall time, batch-layer activity, budget-free
// repeat acquisitions, and recovered evaluation panics (non-zero means
// designs crashed the model but the campaign survived).
func ReportEvalStats(cfg Config, c *Campaign) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Evaluation-layer stats (summed over models) ==\n")
	tb := newTable("Technique", "Evals", "CacheHits", "Evict", "InflightDedup",
		"LayerHits", "PersistHits", "MapTrials", "CostCalls", "EvalWall",
		"Batches", "BatchPts", "Repeats", "Panics")
	for _, tech := range techniqueOrder(c) {
		var evals, hits, evict, dedups, lhits, phits, repeats, panics int
		var trials, costCalls, batches, pts int64
		var wall time.Duration
		for _, r := range c.Runs {
			if r.Technique != tech {
				continue
			}
			evals += r.Stats.Evaluations
			hits += r.Stats.CacheHits
			evict += r.Stats.Evictions
			dedups += r.Stats.InflightDedups
			lhits += r.Stats.LayerHits
			phits += r.Stats.PersistHits
			trials += r.Stats.MapTrials
			costCalls += r.Stats.CostCalls
			wall += r.Stats.EvalWall
			batches += r.Batch.Batches
			pts += r.Batch.Points
			repeats += r.Trace.RepeatSteps
			panics += r.Stats.PanicsRecovered + int(r.Batch.PanicsRecovered)
		}
		tb.add(tech,
			fmt.Sprintf("%d", evals),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%d", evict),
			fmt.Sprintf("%d", dedups),
			fmt.Sprintf("%d", lhits),
			fmt.Sprintf("%d", phits),
			fmt.Sprintf("%d", trials),
			fmt.Sprintf("%d", costCalls),
			fmt.Sprintf("%.2fs", wall.Seconds()),
			fmt.Sprintf("%d", batches),
			fmt.Sprintf("%d", pts),
			fmt.Sprintf("%d", repeats),
			fmt.Sprintf("%d", panics))
	}
	tb.write(w)

	// Latency distributions from the per-run metrics registries, merged per
	// technique: mapping-search time per layer, end-to-end time per unique
	// design evaluation, and wall time per candidate batch.
	fmt.Fprintf(w, "\n== Evaluation-layer latency (p50/p95/max, seconds) ==\n")
	ht := newTable("Technique", "LayerSearch", "DesignEval", "Batch")
	for _, tech := range techniqueOrder(c) {
		agg := obs.NewRegistry()
		for _, r := range c.Runs {
			if r.Technique == tech {
				agg.Merge(r.Metrics)
			}
		}
		ht.add(tech,
			fmtHist(agg.Histogram("eval_layer_search_seconds", nil)),
			fmtHist(agg.Histogram("eval_design_seconds", nil)),
			fmtHist(agg.Histogram("search_batch_seconds", nil)))
	}
	ht.write(w)
}

// fmtHist renders a latency histogram cell as p50/p95/max in seconds
// ("-" when the histogram recorded nothing).
func fmtHist(h *obs.Histogram) string {
	if h.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3g/%.3g/%.3g", h.Quantile(0.50), h.Quantile(0.95), h.Max())
}

// Summary aggregates campaign-level headline numbers (the paper's abstract
// claims: latency ratio and iteration ratio of Explainable-DSE codesign
// over the black-box techniques).
type Summary struct {
	// LatencyRatioVsBest is geomean(best black-box latency /
	// Explainable-DSE latency) over models where both found solutions.
	LatencyRatioVsBest float64
	// IterRatio is the geomean iterations-to-comparable-quality ratio:
	// per baseline, the run delivering the worse best is charged its
	// whole budget while the better run is charged only the unique
	// evaluations it spent to first match that quality
	// (Trace.EvalsToReach). Budget accounting charges unique designs
	// only, so every completed run spends the same total budget and
	// convergence speed must be read from the traces, not totals.
	IterRatio float64
	// TimeRatio is geomean(black-box time / Explainable-DSE time).
	TimeRatio float64
}

// Summarize computes the headline ratios of a campaign against the named
// Explainable technique. Following the paper's comparison, the "other"
// techniques are the non-explainable ones only.
func Summarize(cfg Config, c *Campaign, explainableName string) Summary {
	return SummarizeVs(cfg, c, explainableName, func(tech string) bool {
		return !strings.Contains(tech, "ExplainableDSE")
	})
}

// SummarizeVs computes the headline ratios against the baseline techniques
// selected by the filter — e.g. only the codesign black-box techniques, the
// like-for-like comparison behind the paper's 103x search-time claim.
func SummarizeVs(cfg Config, c *Campaign, explainableName string, isBaseline func(string) bool) Summary {
	var latLog, iterLog, timeLog float64
	var latN, iterN, timeN int
	for _, m := range modelNames(cfg.Models) {
		ex := c.Get(explainableName, m)
		if ex == nil || ex.Trace.Best == nil {
			continue
		}
		bestOther := math.Inf(1)
		var nOthers int
		var otherTime, pairLog float64
		var pairN int
		for _, r := range c.Runs {
			if r.Model != m || !isBaseline(r.Technique) {
				continue
			}
			nOthers++
			otherTime += r.Elapsed.Seconds()
			if r.Trace.Best == nil {
				continue
			}
			if r.Trace.BestObjective() < bestOther {
				bestOther = r.Trace.BestObjective()
			}
			// Iterations-to-comparable-quality (the paper's §5
			// currency): the run that delivered the worse best is
			// charged its whole budget — that is what producing its
			// answer cost — while the better run is charged only the
			// unique evaluations it spent to first match that
			// quality.
			var rIters, exIters int
			if ex.Trace.BestObjective() <= r.Trace.BestObjective() {
				rIters = r.Evaluations
				exIters = ex.Trace.EvalsToReach(r.Trace.BestObjective())
			} else {
				rIters = r.Trace.EvalsToReach(ex.Trace.BestObjective())
				exIters = ex.Evaluations
			}
			if exIters > 0 && rIters > 0 {
				pairLog += math.Log(float64(rIters) / float64(exIters))
				pairN++
			}
		}
		if !math.IsInf(bestOther, 1) {
			latLog += math.Log(bestOther / ex.Trace.BestObjective())
			latN++
		}
		if pairN > 0 {
			iterLog += pairLog / float64(pairN)
			iterN++
		}
		if nOthers > 0 {
			timeLog += math.Log(otherTime / float64(nOthers) / math.Max(ex.Elapsed.Seconds(), 1e-9))
			timeN++
		}
	}
	s := Summary{LatencyRatioVsBest: 1, IterRatio: 1, TimeRatio: 1}
	if latN > 0 {
		s.LatencyRatioVsBest = math.Exp(latLog / float64(latN))
	}
	if iterN > 0 {
		s.IterRatio = math.Exp(iterLog / float64(iterN))
	}
	if timeN > 0 {
		s.TimeRatio = math.Exp(timeLog / float64(timeN))
	}
	return s
}

// techniqueOrder lists the campaign's techniques in first-seen order.
func techniqueOrder(c *Campaign) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range c.Runs {
		if !seen[r.Technique] {
			seen[r.Technique] = true
			out = append(out, r.Technique)
		}
	}
	return out
}

func shortNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = shortModel(n)
	}
	return out
}
