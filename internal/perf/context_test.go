package perf

import (
	"math/rand"
	"testing"

	"xdse/internal/mapping"
)

// TestEvaluateCyclesZeroAllocs pins the Tier-1 hot path to zero heap
// allocations — both on the memoized ordering-sweep path (nine calls per
// fill) and on the memo-miss path (a fresh fill every call). The enumeration
// inner loop makes ~43k of these calls per layer search; one allocation per
// call would reintroduce the GC pressure the context exists to remove.
func TestEvaluateCyclesZeroAllocs(t *testing.T) {
	l := testLayer()
	d := testDesign()
	ctx := NewContext(d, l)
	dims := mapping.Dims(l)
	rng := rand.New(rand.NewSource(31))

	fillA := mapping.Random(dims, rng)
	fillB := fillA
	fillB.F[mapping.DimK][mapping.LvlRF], fillB.F[mapping.DimK][mapping.LvlDRAM] =
		fillB.F[mapping.DimK][mapping.LvlDRAM], fillB.F[mapping.DimK][mapping.LvlRF]

	ord := 0
	if allocs := testing.AllocsPerRun(200, func() {
		m := fillA
		m.DRAMStationary = mapping.Tensor(ord % 3)
		m.NoCStationary = mapping.Tensor((ord / 3) % 3)
		ord++
		ctx.EvaluateCycles(&m)
	}); allocs != 0 {
		t.Errorf("memoized ordering sweep allocates %.1f per call, want 0", allocs)
	}

	flip := false
	if allocs := testing.AllocsPerRun(200, func() {
		m := fillA
		if flip {
			m = fillB
		}
		flip = !flip
		ctx.EvaluateCycles(&m)
	}); allocs != 0 {
		t.Errorf("fill-memo miss path allocates %.1f per call, want 0", allocs)
	}
}

// TestEnumerateTrajectoryMatchesSlowPath runs the production pruned search
// with the Tier-1 fast-path cost against a reference cost that calls the
// full Tier-2 evaluation on every candidate, in both production
// configurations — cold and warm-started — and demands the complete Result
// (best mapping, cycles, trial counts, cost-call counts, pruning counts) be
// identical.
func TestEnumerateTrajectoryMatchesSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	warmChecked := 0
	for _, l := range propertyLayers() {
		for i := 0; i < 6; i++ {
			d := randDesign(rng)
			ctx := NewContext(d, l)
			slowCost := func(m *mapping.Mapping) (float64, bool) {
				b := ctx.Evaluate(*m)
				return b.Cycles, b.Valid
			}
			newCfg := func() mapping.GenConfig {
				return mapping.GenConfig{PEs: d.PEs, L1Bytes: d.L1Bytes, L2Bytes: d.L2Bytes(), MaxN: 600}
			}

			// Cold: no pruning, every candidate costed.
			cold := mapping.EnumeratePruned(l, newCfg(), NewContext(d, l).EvaluateCycles)
			coldRef := mapping.EnumeratePruned(l, newCfg(), slowCost)
			if cold != coldRef {
				t.Fatalf("%s: cold fast-path result %+v != slow-path %+v", l.Name, cold, coldRef)
			}
			if !cold.Found {
				continue
			}

			// Warm: lower-bound pruning seeded by an incumbent probe.
			inc := cold.Best
			warmCfg := newCfg()
			warmCfg.CostLB = ctx.CostLowerBound
			warmCfg.Incumbent = &inc
			warm := mapping.EnumeratePruned(l, warmCfg, NewContext(d, l).EvaluateCycles)
			refCfg := newCfg()
			refCfg.CostLB = ctx.CostLowerBound
			refCfg.Incumbent = &inc
			warmRef := mapping.EnumeratePruned(l, refCfg, slowCost)
			if warm != warmRef {
				t.Fatalf("%s: warm fast-path result %+v != slow-path %+v", l.Name, warm, warmRef)
			}
			if warm.Best != cold.Best || warm.Cycles != cold.Cycles || warm.Evaluated != cold.Evaluated {
				t.Fatalf("%s: warm result diverged from cold (%+v vs %+v)", l.Name, warm, cold)
			}
			warmChecked++
		}
	}
	if warmChecked < 10 {
		t.Fatalf("only %d warm trajectories compared", warmChecked)
	}
}

// TestEnumerateSearchAllocsRealCost pins the allocation count of a full
// pruned enumeration driven by the real Tier-1 cost (the mapping-package
// regression test uses a synthetic cost). After the divisor/spread memos are
// warm, a search over hundreds of candidates must amortize to a handful of
// allocations — any per-candidate allocation in EvaluateCycles blows the
// bound immediately.
func TestEnumerateSearchAllocsRealCost(t *testing.T) {
	l := testLayer()
	d := testDesign()
	cfg := mapping.GenConfig{PEs: d.PEs, L1Bytes: d.L1Bytes, L2Bytes: d.L2Bytes(), MaxN: 600}
	ctx := NewContext(d, l)
	warm := mapping.EnumeratePruned(l, cfg, ctx.EvaluateCycles) // warm the divisor/spread memos
	if !warm.Found {
		t.Fatal("no mapping found")
	}
	allocs := testing.AllocsPerRun(20, func() {
		c := cfg
		c.CostLB = ctx.CostLowerBound
		mapping.EnumeratePruned(l, c, ctx.EvaluateCycles)
	})
	if allocs > 16 {
		t.Fatalf("real-cost enumeration allocates %.0f times per search; Tier-1 hot path has regressed", allocs)
	}
}
