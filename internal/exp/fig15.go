package exp

import (
	"fmt"
	"math/rand"
	"time"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// Fig15Result is one black-box mapper's outcome over the ResNet18 layers
// (Fig. 15 / §F: selecting the mapping-optimization technique).
type Fig15Result struct {
	Technique string
	// LayerCycles is the best latency (cycles) per unique layer; +Inf
	// when the mapper failed to find a valid mapping in budget.
	LayerCycles []float64
	// TotalMs is the summed whole-network latency contribution of the
	// mapped layers (multiplicity-weighted), counting failures as 0.
	TotalMs float64
	// Failures counts layers with no valid mapping found.
	Failures int
	// Elapsed is the total mapping-search wall-clock time.
	Elapsed time.Duration
}

// mapperFn is a black-box mapping search.
type mapperFn func(l workload.Layer, trials int, rng *rand.Rand, cost mapping.Cost) mapping.Result

// RunFig15 compares random search, simulated annealing, the genetic
// algorithm, and Bayesian optimization on mapping the ResNet18 layers onto
// a mid-range reference design.
func RunFig15(cfg Config) []Fig15Result {
	model := workload.ResNet18()
	space := arch.EdgeSpace()
	design := space.MustDecode(referencePoint(space))
	trials := cfg.MapTrials

	mappers := []struct {
		name string
		fn   mapperFn
	}{
		{"RandomSearch", mapping.RandomSearch},
		{"SimulatedAnnealing", mapping.AnnealSearch},
		{"GeneticAlgorithm", mapping.GeneticSearch},
		{"BayesianOptimization", mapping.BayesSearch},
	}

	var out []Fig15Result
	for _, mp := range mappers {
		res := Fig15Result{Technique: mp.name}
		start := time.Now()
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, l := range model.Layers {
			r := mp.fn(l, trials, rng, perf.NewContext(design, l).EvaluateFill)
			if r.Found {
				res.LayerCycles = append(res.LayerCycles, r.Cycles)
				res.TotalMs += r.Cycles * float64(l.Mult) / (float64(design.FreqMHz) * 1e3)
			} else {
				res.LayerCycles = append(res.LayerCycles, 0)
				res.Failures++
			}
		}
		res.Elapsed = time.Since(start)
		out = append(out, res)
	}
	return out
}

// ReportFig15 renders per-layer best mapping latency and totals.
func ReportFig15(cfg Config, results []Fig15Result) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Fig15: black-box mapping optimizers on ResNet18 layers (reference design) ==\n")
	model := workload.ResNet18()
	header := []string{"Technique"}
	for _, l := range model.Layers {
		header = append(header, l.Name)
	}
	header = append(header, "Total(ms)", "Fail", "Time(s)")
	tb := newTable(header...)
	for _, r := range results {
		row := []string{r.Technique}
		for _, cyc := range r.LayerCycles {
			if cyc == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.0fk", cyc/1000))
			}
		}
		row = append(row,
			fmt.Sprintf("%.2f", r.TotalMs),
			fmt.Sprintf("%d", r.Failures),
			fmt.Sprintf("%.1f", r.Elapsed.Seconds()))
		tb.add(row...)
	}
	tb.write(w)
}
