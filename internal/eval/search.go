package eval

import (
	"math/rand"
	"time"

	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/mapping"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// timedSearchLayer runs searchLayer and derives the winner's breakdown,
// recording the latency into the eval_layer_search_seconds histogram; cache
// hits and in-flight joins never reach it, so the histogram measures real
// searches only.
func (e *Evaluator) timedSearchLayer(d arch.Design, l workload.Layer, salt int64) layerEntry {
	start := time.Now()
	ent := e.derive(d, l, e.searchLayer(d, l, salt))
	e.hLayer.ObserveDuration(time.Since(start))
	return ent
}

// searchLayer runs the configured mapping search for one layer on one
// design and returns its decision, counting the search's cost calls and
// lower-bound prunes. The search inner loop runs on one perf.EvalContext's
// Tier-1 fast path (one call per temporal fill for all its orderings,
// cycles only, no allocation); the winner's Tier-2 breakdown is derive's
// job. In PrunedMappings mode the enumeration carries a certified cost
// lower bound, so what it prices depends on the layer and the design only.
func (e *Evaluator) searchLayer(d arch.Design, l workload.Layer, salt int64) evalcache.Entry {
	var res mapping.Result
	switch e.cfg.Mode {
	case FixedDataflow:
		// One analytical mapping, costed once by derive.
		e.cCostCalls.Inc()
		return evalcache.Entry{Found: true, Mapping: mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes()), Trials: 1}
	case RandomMappings:
		rng := rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + salt))
		res = mapping.RandomSearch(l, e.cfg.MapTrials, rng, perf.NewContext(d, l).EvaluateFill)
	case PrunedMappings:
		ctx := perf.NewContext(d, l)
		res = mapping.EnumeratePruned(l, mapping.GenConfig{
			PEs:       d.PEs,
			L1Bytes:   d.L1Bytes,
			L2Bytes:   d.L2Bytes(),
			MinN:      10,
			MaxN:      e.cfg.MapTrials,
			BaseValid: ctx.Valid,
			CostLB:    ctx.CostLowerBound,
		}, ctx.EvaluateFill)
	}
	e.cCostCalls.Add(int64(res.CostCalls))
	e.cLBPruned.Add(int64(res.LBPruned))
	dec := evalcache.Entry{Found: res.Found, Trials: res.Evaluated}
	if res.Found {
		dec.Mapping = res.Best
	}
	return dec
}
