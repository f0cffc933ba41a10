package eval

import (
	"math/rand"

	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/mapping"
	"xdse/internal/perf"
)

// searchLayer runs the configured mapping search for slot s on one design and
// returns its decision, counting the search's cost calls and lower-bound
// prunes. The search inner loop runs on Tier 1 of the perf model, cycles only
// and no allocation; the winner's Tier-2 breakdown is derive's job. In
// PrunedMappings mode the search replays the walk memo of the slot's shape
// under the design's PEs and buffers (see walk), and carries a certified cost
// lower bound, so what it prices depends on the layer and the design only.
func (e *Evaluator) searchLayer(d arch.Design, s *slot) evalcache.Entry {
	l := s.layer
	var res mapping.Result
	switch e.cfg.Mode {
	case FixedDataflow:
		// One analytical mapping, costed once by derive.
		e.cCostCalls.Inc()
		return evalcache.Entry{Found: true, Mapping: mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes()), Trials: 1}
	case RandomMappings:
		rng := rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + int64(s.index)))
		res = mapping.RandomSearch(l, e.cfg.MapTrials, rng, perf.NewContext(d, l).EvaluateFill)
	case PrunedMappings:
		res = perf.SearchPruned(e.walk(s.shape, d, l), d, l, mapping.GenConfig{MinN: 10, MaxN: e.cfg.MapTrials})
	}
	e.cCostCalls.Add(int64(res.CostCalls))
	e.cLBPruned.Add(int64(res.LBPruned))
	dec := evalcache.Entry{Found: res.Found, Trials: res.Evaluated}
	if res.Found {
		dec.Mapping = res.Best
	}
	return dec
}
