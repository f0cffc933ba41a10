package perf

import (
	"math"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// pruneTestDesigns returns a few designs with distinct mapping sub-keys,
// from roomy to tight, so the lower bound meets both searches it prunes
// hard and searches it cannot prune.
func pruneTestDesigns() []arch.Design {
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

func pruneTestLayers() []workload.Layer {
	return []workload.Layer{
		{Kind: workload.Conv, Name: "c1", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.Conv, Name: "c2", K: 128, C: 64, Y: 7, X: 7, R: 3, S: 3, Stride: 2, Mult: 1},
		{Kind: workload.DWConv, Name: "dw", K: 96, C: 96, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.Gemm, Name: "g", K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1, Stride: 1, Mult: 1},
	}
}

// searchCfg is the budget of a pruned search of maxN candidates.
func searchCfg(maxN int) mapping.GenConfig { return mapping.GenConfig{MinN: 10, MaxN: maxN} }

// newPricer returns Tier 1's pricer for one search of layer l on design d.
func newPricer(d arch.Design, l workload.Layer) *pricer {
	p := new(pricer)
	p.c.init(d, l)
	return p
}

// unbounded prices like its pricer without the lower bound: it prunes
// nothing.
type unbounded struct{ *pricer }

func (u unbounded) Base(b *mapping.Base) (float64, bool) {
	_, ok := u.pricer.Base(b)
	return math.Inf(-1), ok
}

// prunedSearch is the production search of layer l on design d, on a fresh
// walk: the enumeration under the perf model's compute-floor lower bound.
func prunedSearch(d arch.Design, l workload.Layer) mapping.Result {
	return SearchPruned(nil, d, l, searchCfg(300))
}

// TestWarmEnumerationBitIdentical is the pruning contract on the real cost
// model: for every (design, layer) pair, enumeration with the cost lower
// bound must return exactly the unpruned run's best mapping, cycles, Found
// flag, and Evaluated count, and price no more candidates. Only
// CostCalls/LBPruned may differ.
func TestWarmEnumerationBitIdentical(t *testing.T) {
	for _, l := range pruneTestLayers() {
		for i, d := range pruneTestDesigns() {
			full := mapping.EnumeratePruned(NewWalk(l, d), searchCfg(300), unbounded{newPricer(d, l)})
			pruned := prunedSearch(d, l)
			if pruned.Best != full.Best || pruned.Cycles != full.Cycles ||
				pruned.Found != full.Found || pruned.Evaluated != full.Evaluated {
				t.Errorf("layer %s design %d: pruned result diverges\nunpruned: %+v cycles=%v eval=%d\npruned:   %+v cycles=%v eval=%d",
					l.Name, i, full.Best, full.Cycles, full.Evaluated,
					pruned.Best, pruned.Cycles, pruned.Evaluated)
			}
			if pruned.CostCalls > full.CostCalls {
				t.Errorf("layer %s design %d: pruned made more cost calls (%d) than unpruned (%d)",
					l.Name, i, pruned.CostCalls, full.CostCalls)
			}
		}
	}
}

// searchWork is the part of a search's Result that records its work
// rather than its answer.
type searchWork struct{ costCalls, lbPruned int }

// workGolden[layer][design] is the work of the pruned search of every pair
// of TestWarmEnumerationBitIdentical's grid.
var workGolden = map[string][4]searchWork{
	"c1": {{75, 225}, {75, 225}, {1, 299}, {75, 225}},
	"c2": {{225, 75}, {225, 75}, {1, 299}, {225, 75}},
	"dw": {{300, 0}, {300, 0}, {300, 0}, {300, 0}},
	"g":  {{300, 0}, {300, 0}, {300, 0}, {300, 0}},
}

// TestWarmEnumerationWorkGolden pins the search's work, not only its
// answer: on TestWarmEnumerationBitIdentical's grid, every pruned run's
// CostCalls and LBPruned equal workGolden.
func TestWarmEnumerationWorkGolden(t *testing.T) {
	for _, l := range pruneTestLayers() {
		golden, ok := workGolden[l.Name]
		if !ok {
			t.Fatalf("layer %s has no golden work", l.Name)
		}
		for i, d := range pruneTestDesigns() {
			res := prunedSearch(d, l)
			if got := (searchWork{res.CostCalls, res.LBPruned}); got != golden[i] {
				t.Errorf("layer %s design %d: work %+v, want %+v", l.Name, i, got, golden[i])
			}
		}
	}
}
