package mapping

import (
	"math"
	"testing"

	"xdse/internal/workload"
)

// benchLayer is a mid-size CONV layer representative of the suite.
func benchLayer() workload.Layer {
	return workload.Layer{Kind: workload.Conv, Name: "b", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1}
}

// candidateCost is a synthetic cost of one candidate: its cycles and
// whether it is valid.
type candidateCost func(m *Mapping) (cycles float64, ok bool)

// perCandidate adapts a candidateCost to the fill contract of Cost: it
// prices the orderings one by one, in order, on a copy of the fill, and an
// invalid candidate at +Inf. The copy is the adapter's own scratch, so
// pricing allocates nothing and an adapted cost must not be shared between
// goroutines.
func perCandidate(f candidateCost) Cost {
	var c Mapping
	return func(m *Mapping, orderings []Mapping, cycles []float64) {
		c = *m
		for i := range orderings {
			c.DRAMStationary, c.NoCStationary = orderings[i].DRAMStationary, orderings[i].NoCStationary
			if v, ok := f(&c); ok {
				cycles[i] = v
			} else {
				cycles[i] = math.Inf(1)
			}
		}
	}
}

// benchCost is an allocation-free synthetic cost model: compute-bound time
// plus a DRAM-traffic proxy, so its exact lower bound at a given spatial
// occupancy is macs/spatialPEs (mirroring the perf model's TComp floor).
func benchCost(l workload.Layer) (candidateCost, func(int) float64) {
	dims := Dims(l)
	macs := 1.0
	for d := Dim(0); d < NumDims; d++ {
		macs *= float64(dims[d])
	}
	cost := func(m *Mapping) (float64, bool) {
		t := macs / float64(m.SpatialPEs())
		return t + 0.01*t*float64(m.LevelProduct(LvlDRAM)), true
	}
	lb := func(spatialPEs int) float64 {
		if spatialPEs < 1 {
			spatialPEs = 1
		}
		return macs / float64(spatialPEs)
	}
	return cost, lb
}

func benchGenCfg() GenConfig {
	return GenConfig{PEs: 256, L1Bytes: 512, L2Bytes: 512 * 1024, MinN: 10, MaxN: 400}
}

// BenchmarkEnumeratePruned measures the pruned enumeration cold (no bound)
// and with lower-bound self-pruning.
func BenchmarkEnumeratePruned(b *testing.B) {
	l := benchLayer()
	f, lb := benchCost(l)
	cost := perCandidate(f)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EnumeratePruned(l, benchGenCfg(), cost)
		}
	})
	b.Run("lb-pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := benchGenCfg()
			cfg.CostLB = lb
			EnumeratePruned(l, cfg, cost)
		}
	})
}

// TestEnumerateAllocsRegression pins the allocation count of one full pruned
// enumeration after the memo caches are warm. The pre-optimization hot loop
// allocated per candidate (divisor slices, pickSpread maps, option maps);
// the de-allocated loop amortizes to a handful of allocations per search.
func TestEnumerateAllocsRegression(t *testing.T) {
	l := benchLayer()
	f, lb := benchCost(l)
	cost := perCandidate(f)
	warmRes := EnumeratePruned(l, benchGenCfg(), cost) // warm the divisor/spread memos
	if !warmRes.Found {
		t.Fatal("no mapping found")
	}
	allocs := testing.AllocsPerRun(20, func() {
		cfg := benchGenCfg()
		cfg.CostLB = lb
		EnumeratePruned(l, cfg, cost)
	})
	// One enumerator struct plus small constant overhead; hundreds of
	// candidates are examined, so any per-candidate allocation blows far
	// past this bound.
	if allocs > 16 {
		t.Fatalf("pruned enumeration allocates %.0f times per search; hot loop has regressed", allocs)
	}
}

// TestWarmResultMatchesColdSynthetic is a mapping-level guard of the
// pruning contract on the synthetic cost model (the perf-model version
// lives in internal/perf): the search under the lower bound returns
// exactly the unpruned search's answer, and prices fewer candidates.
func TestWarmResultMatchesColdSynthetic(t *testing.T) {
	l := benchLayer()
	f, lb := benchCost(l)
	cost := perCandidate(f)
	full := EnumeratePruned(l, benchGenCfg(), cost)
	cfg := benchGenCfg()
	cfg.CostLB = lb
	pruned := EnumeratePruned(l, cfg, cost)
	if pruned.Best != full.Best || pruned.Cycles != full.Cycles || pruned.Evaluated != full.Evaluated {
		t.Fatalf("pruned diverged: unpruned %v/%v/%d pruned %v/%v/%d",
			full.Best, full.Cycles, full.Evaluated, pruned.Best, pruned.Cycles, pruned.Evaluated)
	}
	if pruned.LBPruned == 0 {
		t.Fatal("pruned run pruned nothing")
	}
	if pruned.CostCalls >= full.CostCalls {
		t.Fatalf("pruned run made %d cost calls, unpruned %d; pruning saved nothing", pruned.CostCalls, full.CostCalls)
	}
}
