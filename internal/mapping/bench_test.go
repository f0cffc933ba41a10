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
	return GenConfig{MinN: 10, MaxN: 400}
}

// benchWalk starts the walk of the benchmark key: l under 256 PEs, 512 B of
// RF and 512 KiB of scratchpad.
func benchWalk(l workload.Layer) *Walk[Mapping] {
	return NewWalk[Mapping](l, 256, 512, 512*1024)
}

// enumerate runs the pruned enumeration of layer l under pes PEs and the
// given RF and scratchpad capacities on a fresh walk, pricing through p.
func enumerate(l workload.Layer, pes, l1, l2 int, cfg GenConfig, p *CostPricer) Result {
	return EnumeratePruned(NewWalk[Mapping](l, pes, l1, l2), cfg, p)
}

// BenchmarkEnumeratePruned measures the pruned enumeration on a fresh walk
// without a bound (cold) and with lower-bound pruning, and a bounded search
// replaying a walk an earlier search recorded.
func BenchmarkEnumeratePruned(b *testing.B) {
	l := benchLayer()
	f, lb := benchCost(l)
	cost := perCandidate(f)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EnumeratePruned(benchWalk(l), benchGenCfg(), &CostPricer{Layer: l, Cost: cost})
		}
	})
	b.Run("lb-pruned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EnumeratePruned(benchWalk(l), benchGenCfg(), &CostPricer{Layer: l, Cost: cost, LB: lb})
		}
	})
	b.Run("replay", func(b *testing.B) {
		w, p := benchWalk(l), &CostPricer{Layer: l, Cost: cost, LB: lb}
		EnumeratePruned(w, benchGenCfg(), p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			EnumeratePruned(w, benchGenCfg(), p)
		}
	})
}

// TestEnumerateAllocsRegression pins the allocation count of one pruned
// enumeration after the memo caches are warm: a search replaying a walk
// allocates nothing per candidate, and a cold one allocates per slab of
// bases and per fill region, never per candidate. The pre-optimization hot loop
// allocated per candidate (divisor slices, pickSpread maps, option maps).
func TestEnumerateAllocsRegression(t *testing.T) {
	l := benchLayer()
	f, lb := benchCost(l)
	p := &CostPricer{Layer: l, Cost: perCandidate(f), LB: lb}
	w := benchWalk(l)
	warmRes := EnumeratePruned(w, benchGenCfg(), p) // warm the divisor/spread memos and the walk
	if !warmRes.Found {
		t.Fatal("no mapping found")
	}
	// Hundreds of candidates are examined, so any per-candidate
	// allocation blows far past these bounds.
	if allocs := testing.AllocsPerRun(20, func() { EnumeratePruned(w, benchGenCfg(), p) }); allocs > 16 {
		t.Fatalf("a replayed pruned enumeration allocates %.0f times per search; hot loop has regressed", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { EnumeratePruned(benchWalk(l), benchGenCfg(), p) }); allocs > coldAllocs {
		t.Fatalf("a cold pruned enumeration allocates %.0f times per search, want at most %d", allocs, coldAllocs)
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
	w := benchWalk(l)
	full := EnumeratePruned(w, benchGenCfg(), &CostPricer{Layer: l, Cost: cost})
	pruned := EnumeratePruned(w, benchGenCfg(), &CostPricer{Layer: l, Cost: cost, LB: lb})
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

// coldAllocs bounds the allocations of TestEnumerateAllocsRegression's cold
// search: the walk, which holds the first slab of base records, and one
// fill region sized for the search. That is 2, and 3 under -race, where
// sync.Pool drops some of what it is given; a record per base made it 7.
const coldAllocs = 3
