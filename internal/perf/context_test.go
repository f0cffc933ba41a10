package perf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"xdse/internal/mapping"
)

// nineOrderings lists the nine (DRAM, NoC) stationary pairs in the order
// the pruned enumerator prices them.
func nineOrderings() []mapping.Mapping {
	var out []mapping.Mapping
	for ds := mapping.Tensor(0); ds < mapping.NumTensors; ds++ {
		for ns := mapping.Tensor(0); ns < mapping.NumTensors; ns++ {
			out = append(out, mapping.Mapping{DRAMStationary: ds, NoCStationary: ns})
		}
	}
	return out
}

// TestEvaluateFillZeroAllocs pins Tier 1 to zero heap allocations: one
// EvaluateFill call over all nine orderings of a fill (the enumerator's
// call), over one ordering (the black-box mappers' call) and over an
// invalid fill, and the Valid base probe. A codesign campaign makes about
// half a million of these calls; one allocation per call would reintroduce
// the GC pressure the context exists to remove.
func TestEvaluateFillZeroAllocs(t *testing.T) {
	l := testLayer()
	ctx := NewContext(testDesign(), l)
	valid := sequentialMapping(l)
	invalid := valid
	invalid.F[mapping.DimK][mapping.LvlDRAM]++ // breaks loop coverage
	nine := nineOrderings()
	cycles := make([]float64, len(nine))
	for _, tc := range []struct {
		name      string
		m         *mapping.Mapping
		orderings []mapping.Mapping
		valid     bool
	}{
		{"nine orderings", &valid, nine, true},
		{"one ordering", &valid, nine[4:5], true},
		{"invalid fill", &invalid, nine, false},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			ctx.EvaluateFill(tc.m, tc.orderings, cycles)
		}); allocs != 0 {
			t.Errorf("%s: EvaluateFill allocates %.1f per call, want 0", tc.name, allocs)
		}
		if math.IsInf(cycles[0], 1) == tc.valid {
			t.Errorf("%s: cycles %v, want a fill that is valid=%v", tc.name, cycles[0], tc.valid)
		}
		if allocs := testing.AllocsPerRun(200, func() { ctx.Valid(tc.m) }); allocs != 0 {
			t.Errorf("%s: Valid allocates %.1f per call, want 0", tc.name, allocs)
		}
	}
}

// TestSharedContextConcurrentEvaluateFill: an EvalContext is immutable after
// NewContext, so four goroutines pricing the same fills on one context, each
// in its own order, must see exactly what a serial pass sees. Under -race, a
// write to context state on the Tier-1 path fails it.
func TestSharedContextConcurrentEvaluateFill(t *testing.T) {
	l := testLayer()
	ctx := NewContext(testDesign(), l)
	rng := rand.New(rand.NewSource(43))
	nine := nineOrderings()
	fills := make([]mapping.Mapping, 48)
	fills[0] = sequentialMapping(l)
	for i := 1; i < len(fills); i++ {
		fills[i] = mapping.Random(mapping.Dims(l), rng)
	}
	want := make([][]float64, len(fills))
	valid := 0
	for i := range fills {
		want[i] = make([]float64, len(nine))
		ctx.EvaluateFill(&fills[i], nine, want[i])
		if !math.IsInf(want[i][0], 1) {
			valid++
		}
	}
	if valid == 0 || valid == len(fills) {
		t.Fatalf("%d of %d fills valid; the sample must hold both kinds", valid, len(fills))
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]float64, len(nine))
			for rep := 0; rep < 10; rep++ {
				for k := range fills {
					i := (k*(2*g+1) + rep) % len(fills)
					ctx.EvaluateFill(&fills[i], nine, got)
					for j := range got {
						if got[j] != want[i][j] {
							errs[g] = fmt.Errorf("goroutine %d, fill %d, ordering %d: %v, serial %v", g, i, j, got[j], want[i][j])
							return
						}
					}
					if ctx.Valid(&fills[i]) == math.IsInf(want[i][0], 1) {
						errs[g] = fmt.Errorf("goroutine %d, fill %d: Valid disagrees with the serial cycles %v", g, i, want[i][0])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEnumerateTrajectoryMatchesSlowPath runs the production pruned search
// with the Tier-1 fast-path cost against a reference cost that calls the
// full Tier-2 evaluation on every candidate, both unpruned and under the
// lower bound, and demands the complete Result (best mapping, cycles, trial
// counts, cost-call counts, pruning counts) be identical. The pruned answer
// must also equal the unpruned one.
func TestEnumerateTrajectoryMatchesSlowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	prunedChecked := 0
	for _, l := range propertyLayers() {
		for i := 0; i < 6; i++ {
			d := randDesign(rng)
			ctx := NewContext(d, l)
			// slowCost prices each ordering of the fill through a full
			// Tier-2 Breakdown. Every fill the walk holds on a base that
			// passes Valid must be valid: the fast path never rejects one.
			slowCost := func(m *mapping.Mapping, orderings []mapping.Mapping, cycles []float64) {
				c := *m
				for i := range orderings {
					c.DRAMStationary, c.NoCStationary = orderings[i].DRAMStationary, orderings[i].NoCStationary
					b := ctx.Evaluate(c)
					if !b.Valid {
						t.Fatalf("%s: the walk emitted an invalid fill on a valid base: %v (%s)", l.Name, c, b.Incompat)
					}
					cycles[i] = b.Cycles
				}
			}
			cfg := mapping.GenConfig{MaxN: 600}
			slowWalk := func() *mapping.Walk[mapping.Mapping] {
				return mapping.NewWalk[mapping.Mapping](l, d.PEs, d.L1Bytes, d.L2Bytes())
			}

			// Cold: no pruning, every candidate costed.
			cold := mapping.EnumeratePruned(NewWalk(l, d), cfg, unbounded{newPricer(d, l)})
			coldRef := mapping.EnumeratePruned(slowWalk(), cfg, &mapping.CostPricer{Layer: l, Cost: slowCost, BaseValid: ctx.Valid})
			if cold != coldRef {
				t.Fatalf("%s: cold fast-path result %+v != slow-path %+v", l.Name, cold, coldRef)
			}
			if !cold.Found {
				continue
			}

			// Pruned: the production search, under the lower bound.
			pruned := SearchPruned(nil, d, l, cfg)
			prunedRef := mapping.EnumeratePruned(slowWalk(), cfg, &mapping.CostPricer{Layer: l, Cost: slowCost, BaseValid: ctx.Valid, LB: ctx.CostLowerBound})
			if pruned != prunedRef {
				t.Fatalf("%s: pruned fast-path result %+v != slow-path %+v", l.Name, pruned, prunedRef)
			}
			if pruned.Best != cold.Best || pruned.Cycles != cold.Cycles || pruned.Evaluated != cold.Evaluated {
				t.Fatalf("%s: pruned result diverged from cold (%+v vs %+v)", l.Name, pruned, cold)
			}
			prunedChecked++
		}
	}
	if prunedChecked < 10 {
		t.Fatalf("only %d pruned trajectories compared", prunedChecked)
	}
}

// TestEnumerateSearchAllocsRealCost pins the allocation count of a full
// pruned search priced by the real Tier 1 (the mapping-package regression
// test uses a synthetic cost). After the divisor/spread memos are warm, a
// search replaying a walk over hundreds of candidates must amortize to a
// handful of allocations: any per-fill allocation in the pricer blows the
// bound immediately. A cold search allocates its walk, which holds the
// first slab of base records, and one fill region: 2, and 3 under -race,
// where sync.Pool drops some of what it is given. A record per base made
// it 7.
func TestEnumerateSearchAllocsRealCost(t *testing.T) {
	l := testLayer()
	d := testDesign()
	cfg := mapping.GenConfig{MaxN: 600}
	w := NewWalk(l, d)
	if warm := SearchPruned(w, d, l, cfg); !warm.Found { // warm the divisor/spread memos and the walk
		t.Fatal("no mapping found")
	}
	if allocs := testing.AllocsPerRun(20, func() { SearchPruned(w, d, l, cfg) }); allocs > 16 {
		t.Fatalf("a replayed real-cost search allocates %.0f times; Tier-1 hot path has regressed", allocs)
	}
	const coldAllocs = 3
	if allocs := testing.AllocsPerRun(20, func() { SearchPruned(nil, d, l, cfg) }); allocs > coldAllocs {
		t.Fatalf("a cold real-cost search allocates %.0f times, want at most %d", allocs, coldAllocs)
	}
}
