package mapping

import (
	"math"
	"math/rand"

	"xdse/internal/surrogate"
	"xdse/internal/workload"
)

// This file implements the black-box mapping optimizers the paper compares
// in §F / Fig. 15: simulated annealing (SciPy-like), a genetic algorithm
// (scikit-opt-like), and Gaussian-process Bayesian optimization, all over
// the factorization-constrained mapping space. Random search lives in
// mappers.go; the paper finds it the most practical and uses it inside the
// black-box codesign explorations.

// invalidMappingScore penalizes invalid mappings in the black-box searches.
const invalidMappingScore = 1e12

func mappingScore(cost Cost, m Mapping) float64 {
	var c [1]float64
	if cost(&m, alone(&m), c[:]); !math.IsInf(c[0], 1) {
		return c[0]
	}
	return invalidMappingScore
}

// mutate re-randomizes one random dimension's factor split (and sometimes
// an ordering choice).
func mutate(m Mapping, dims [NumDims]int, rng *rand.Rand) Mapping {
	out := m
	switch rng.Intn(8) {
	case 0:
		out.DRAMStationary = Tensor(rng.Intn(int(NumTensors)))
	case 1:
		out.NoCStationary = Tensor(rng.Intn(int(NumTensors)))
	default:
		d := Dim(rng.Intn(int(NumDims)))
		sp := RandomSplit4(dims[d], rng)
		for lv := Level(0); lv < NumLevels; lv++ {
			out.F[d][lv] = sp[lv]
		}
	}
	return out
}

// AnnealSearch optimizes a layer's mapping with simulated annealing.
func AnnealSearch(l workload.Layer, trials int, rng *rand.Rand, cost Cost) Result {
	dims := Dims(l)
	res := Result{Cycles: math.Inf(1)}

	cur := Random(dims, rng)
	curScore := mappingScore(cost, cur)
	res.Evaluated++
	if curScore < invalidMappingScore {
		res.Best, res.Cycles, res.Found = cur, curScore, true
	}

	temp := 0.5 * curScore
	alpha := math.Pow(1e-3, 1.0/float64(max(trials, 2)))
	for res.Evaluated < trials {
		next := mutate(cur, dims, rng)
		nextScore := mappingScore(cost, next)
		res.Evaluated++
		if nextScore < res.Cycles {
			res.Best, res.Cycles, res.Found = next, nextScore, true
		}
		if nextScore <= curScore || rng.Float64() < math.Exp(-(nextScore-curScore)/math.Max(temp, 1e-9)) {
			cur, curScore = next, nextScore
		}
		temp *= alpha
	}
	if res.Cycles >= invalidMappingScore {
		res.Found = false
	}
	res.CostCalls = res.Evaluated
	return res
}

// GeneticSearch optimizes a layer's mapping with a genetic algorithm:
// per-dimension crossover and split-re-randomizing mutation.
func GeneticSearch(l workload.Layer, trials int, rng *rand.Rand, cost Cost) Result {
	dims := Dims(l)
	res := Result{Cycles: math.Inf(1)}
	pop := 16
	if pop > trials {
		pop = max(trials, 2)
	}

	type indiv struct {
		m Mapping
		s float64
	}
	evalOne := func(m Mapping) indiv {
		s := mappingScore(cost, m)
		res.Evaluated++
		if s < res.Cycles {
			res.Best, res.Cycles, res.Found = m, s, true
		}
		return indiv{m, s}
	}

	cur := make([]indiv, 0, pop)
	for i := 0; i < pop && res.Evaluated < trials; i++ {
		cur = append(cur, evalOne(Random(dims, rng)))
	}
	tournament := func() indiv {
		a, b := cur[rng.Intn(len(cur))], cur[rng.Intn(len(cur))]
		if a.s <= b.s {
			return a
		}
		return b
	}
	for res.Evaluated < trials {
		next := make([]indiv, 0, pop)
		for len(next) < pop && res.Evaluated < trials {
			a, b := tournament(), tournament()
			child := a.m
			for d := Dim(0); d < NumDims; d++ {
				if rng.Intn(2) == 0 {
					for lv := Level(0); lv < NumLevels; lv++ {
						child.F[d][lv] = b.m.F[d][lv]
					}
				}
			}
			if rng.Intn(2) == 0 {
				child.NoCStationary = b.m.NoCStationary
			}
			if rng.Float64() < 0.3 {
				child = mutate(child, dims, rng)
			}
			next = append(next, evalOne(child))
		}
		if len(next) >= 2 {
			cur = next
		}
	}
	if res.Cycles >= invalidMappingScore {
		res.Found = false
	}
	res.CostCalls = res.Evaluated
	return res
}

// features embeds a mapping into a feature vector for surrogate models:
// log2 tiling factors normalized per dimension, plus the ordering choices.
func features(m Mapping, dims [NumDims]int) []float64 {
	var x []float64
	for d := Dim(0); d < NumDims; d++ {
		span := math.Log2(float64(dims[d]) + 1)
		for lv := Level(0); lv < NumLevels-1; lv++ { // DRAM factor is implied
			x = append(x, math.Log2(float64(m.Factor(d, lv)))/span)
		}
	}
	x = append(x, float64(m.DRAMStationary)/2, float64(m.NoCStationary)/2)
	return x
}

// BayesSearch optimizes a layer's mapping with GP-based Bayesian
// optimization over the factor-split feature embedding. As the paper finds
// (§F), its per-iteration overhead is far higher than random search.
func BayesSearch(l workload.Layer, trials int, rng *rand.Rand, cost Cost) Result {
	dims := Dims(l)
	res := Result{Cycles: math.Inf(1)}

	var xs [][]float64
	var ys []float64
	observe := func(m Mapping) {
		s := mappingScore(cost, m)
		res.Evaluated++
		if s < res.Cycles {
			res.Best, res.Cycles, res.Found = m, s, true
		}
		xs = append(xs, features(m, dims))
		ys = append(ys, math.Log10(s+1))
	}

	warmup := 10
	if warmup > trials {
		warmup = trials
	}
	for i := 0; i < warmup; i++ {
		observe(Random(dims, rng))
	}

	for res.Evaluated < trials {
		fx, fy := xs, ys
		if len(fx) > 120 {
			fx, fy = fx[len(fx)-120:], fy[len(fy)-120:]
		}
		gp := surrogate.FitGP(fx, fy, 0.3)
		bestY := math.Inf(1)
		for _, y := range fy {
			if y < bestY {
				bestY = y
			}
		}
		var bestM Mapping
		bestEI := math.Inf(-1)
		for i := 0; i < 100; i++ {
			m := Random(dims, rng)
			mu, sigma := gp.Predict(features(m, dims))
			if ei := surrogate.ExpectedImprovement(mu, sigma, bestY); ei > bestEI {
				bestEI, bestM = ei, m
			}
		}
		observe(bestM)
	}
	if res.Cycles >= invalidMappingScore {
		res.Found = false
	}
	res.CostCalls = res.Evaluated
	return res
}
