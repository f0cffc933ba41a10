package mapping

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"xdse/internal/workload"
)

// covers reports whether every dimension's factors multiply to the padded
// extent — the structural invariant of a valid mapping.
func covers(m Mapping, dims [NumDims]int) bool {
	for d := Dim(0); d < NumDims; d++ {
		p := 1
		for lv := Level(0); lv < NumLevels; lv++ {
			p *= m.Factor(d, lv)
		}
		if p != dims[d] {
			return false
		}
	}
	return true
}

func testLayer() workload.Layer {
	return workload.Layer{Kind: workload.Conv, Name: "t", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1}
}

func TestRandomMappingCoversProperty(t *testing.T) {
	l := testLayer()
	dims := Dims(l)
	rng := rand.New(rand.NewSource(1))
	f := func() bool { return covers(Random(dims, rng), dims) }
	if err := quick.Check(func(uint8) bool { return f() }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFixedOutputStationaryFits(t *testing.T) {
	// The fixed dataflow must produce buffer-fitting mappings for every
	// suite layer on both the smallest and a mid-size design.
	configs := []struct{ pes, l1, l2 int }{
		{64, 8, 64 * 1024},
		{512, 128, 512 * 1024},
		{4096, 1024, 4096 * 1024},
	}
	for _, m := range workload.Suite() {
		for _, l := range m.Layers {
			for _, c := range configs {
				mp := FixedOutputStationary(l, c.pes, c.l1, c.l2)
				if !covers(mp, Dims(l)) {
					t.Fatalf("%s/%s: mapping does not cover dims", m.Name, l.Name)
				}
				if got := RFTileBytes(&l, &mp); got > int64(c.l1) {
					t.Fatalf("%s/%s: RF tile %dB > %dB", m.Name, l.Name, got, c.l1)
				}
				if got := L2TileBytes(&l, &mp); got > int64(c.l2) {
					t.Fatalf("%s/%s: L2 tile %dB > %dB", m.Name, l.Name, got, c.l2)
				}
				if mp.SpatialPEs() > c.pes {
					t.Fatalf("%s/%s: %d PEs > %d", m.Name, l.Name, mp.SpatialPEs(), c.pes)
				}
			}
		}
	}
}

func TestFixedOutputStationaryIsOutputStationary(t *testing.T) {
	mp := FixedOutputStationary(testLayer(), 256, 128, 256*1024)
	if mp.DRAMStationary != TO || mp.NoCStationary != TO {
		t.Fatal("fixed dataflow must keep outputs stationary")
	}
}

// fitCost is a synthetic cost: valid iff tiles fit the given budget, cost
// favors more spatial parallelism.
func fitCost(l workload.Layer, pes, l1, l2 int) Cost {
	dims := Dims(l)
	return perCandidate(func(m *Mapping) (float64, bool) {
		if !covers(*m, dims) || m.SpatialPEs() > pes {
			return 0, false
		}
		if RFTileBytes(&l, m) > int64(l1) || L2TileBytes(&l, m) > int64(l2) {
			return 0, false
		}
		return 1e9 / float64(m.SpatialPEs()), true
	})
}

func TestRandomSearchFindsValid(t *testing.T) {
	l := testLayer()
	rng := rand.New(rand.NewSource(2))
	res := RandomSearch(l, 2000, rng, fitCost(l, 256, 512, 256*1024))
	if !res.Found {
		t.Fatal("random search found nothing")
	}
	if res.Evaluated != 2000 {
		t.Fatalf("evaluated %d, want 2000", res.Evaluated)
	}
}

func TestEnumeratePrunedFindsValidUnderTinyBuffers(t *testing.T) {
	// The regression of the minimal edge design: L1 = 8 bytes only
	// admits near-sequential mappings; the enumerator must still reach
	// them within budget.
	l := testLayer()
	cost := fitCost(l, 64, 8, 64*1024)
	res := enumerate(l, 64, 8, 64*1024, GenConfig{MaxN: 400}, &CostPricer{Layer: l, Cost: cost})
	if !res.Found {
		t.Fatal("pruned enumeration found nothing under tiny buffers")
	}
	if res.Evaluated > 400 {
		t.Fatalf("budget exceeded: %d", res.Evaluated)
	}
}

func TestEnumeratePrunedPrefersUtilization(t *testing.T) {
	l := testLayer()
	cost := fitCost(l, 256, 1024, 1024*1024)
	res := enumerate(l, 256, 1024, 1024*1024, GenConfig{MaxN: 2000}, &CostPricer{Layer: l, Cost: cost})
	if !res.Found {
		t.Fatal("nothing found")
	}
	// With generous buffers the search must occupy a healthy share of
	// the PE array (cost = 1e9/PEs, so Cycles reflects 1/utilization).
	if got := 1e9 / res.Cycles; got < 64 {
		t.Fatalf("best mapping uses only %.0f PEs", got)
	}
}

func TestEnumeratePrunedBaseValidSkipsEverything(t *testing.T) {
	l := testLayer()
	calls := 0
	cost := perCandidate(func(*Mapping) (float64, bool) { calls++; return 1, true })
	res := enumerate(l, 64, 0, 0, GenConfig{MaxN: 100}, &CostPricer{Layer: l, Cost: cost, BaseValid: func(*Mapping) bool { return false }})
	if res.Found || calls != 0 {
		t.Fatalf("BaseValid=false must suppress all evaluations (calls=%d)", calls)
	}
}

func TestPickSpread(t *testing.T) {
	vs := []int{1, 2, 4, 8, 16, 32, 64}
	got := pickSpread(vs, 3)
	if len(got) != 3 || got[0] != 64 {
		t.Fatalf("pickSpread = %v", got)
	}
	all := pickSpread(vs, 10)
	if len(all) != len(vs) || all[0] != 64 || all[len(all)-1] != 1 {
		t.Fatalf("pickSpread full = %v", all)
	}
}

func TestBlackBoxMappersRespectBudgetAndValidity(t *testing.T) {
	l := testLayer()
	cost := fitCost(l, 256, 512, 256*1024)
	dims := Dims(l)
	for name, fn := range map[string]func(workload.Layer, int, *rand.Rand, Cost) Result{
		"random":  RandomSearch,
		"anneal":  AnnealSearch,
		"genetic": GeneticSearch,
		"bayes":   BayesSearch,
	} {
		rng := rand.New(rand.NewSource(5))
		res := fn(l, 300, rng, cost)
		if res.Evaluated > 300 {
			t.Errorf("%s: evaluated %d > budget", name, res.Evaluated)
		}
		if !res.Found {
			t.Errorf("%s: found no valid mapping", name)
			continue
		}
		if math.IsInf(res.Cycles, 1) {
			t.Errorf("%s: infinite best cost", name)
		}
		if !covers(res.Best, dims) {
			t.Errorf("%s: best mapping does not cover dims", name)
		}
	}
}

func TestMutatePreservesCoverage(t *testing.T) {
	l := testLayer()
	dims := Dims(l)
	rng := rand.New(rand.NewSource(9))
	m := Random(dims, rng)
	for i := 0; i < 200; i++ {
		m = mutate(m, dims, rng)
		if !covers(m, dims) {
			t.Fatalf("mutation %d broke coverage", i)
		}
	}
}

// TestEnumeratePrunedEmitsOnlyCoveringMappings: every mapping the pruned
// generator evaluates must cover the padded dims exactly (the structural
// invariant the cost model assumes).
func TestEnumeratePrunedEmitsOnlyCoveringMappings(t *testing.T) {
	l := testLayer()
	dims := Dims(l)
	bad := 0
	cost := perCandidate(func(m *Mapping) (float64, bool) {
		if !covers(*m, dims) {
			bad++
		}
		return 1, true
	})
	enumerate(l, 256, 512, 256*1024, GenConfig{MaxN: 800}, &CostPricer{Layer: l, Cost: cost})
	if bad != 0 {
		t.Fatalf("%d emitted mappings do not cover the dims", bad)
	}
}

// TestEnumeratePrunedRespectsPEBudget: no emitted mapping occupies more PEs
// than the generator was budgeted.
func TestEnumeratePrunedRespectsPEBudget(t *testing.T) {
	l := testLayer()
	over := 0
	cost := perCandidate(func(m *Mapping) (float64, bool) {
		if m.SpatialPEs() > 128 {
			over++
		}
		return 1, true
	})
	enumerate(l, 128, 0, 0, GenConfig{MaxN: 600}, &CostPricer{Layer: l, Cost: cost})
	if over != 0 {
		t.Fatalf("%d emitted mappings exceed the PE budget", over)
	}
}

// TestSpreadDivisorsParallelConsistent hammers the sharded spreadDivisors
// and Divisors memos from many goroutines (run under -race in CI) and
// validates every answer against an unmemoized reference, including
// pathological n <= 0 keys that must not break the shard indexing.
func TestSpreadDivisorsParallelConsistent(t *testing.T) {
	type query struct{ n, max int }
	var queries []query
	for _, n := range []int{-7, 0, 1, 2, 12, 60, 64, 96, 112, 210, 1008, 4096, 6174} {
		// Production fan-outs are 2, 3, and 6 (pickSpread requires max >= 2).
		for _, max := range []int{2, 3, 6, 50} {
			queries = append(queries, query{n, max})
		}
	}
	ref := make(map[query][]int, len(queries))
	for _, q := range queries {
		n := q.n
		if n < 1 {
			n = 1
		}
		var ds []int
		for i := 1; i <= n; i++ {
			if n%i == 0 {
				ds = append(ds, i)
			}
		}
		ref[q] = pickSpread(ds, q.max)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for _, q := range queries {
					got := spreadDivisors(q.n, q.max)
					want := ref[q]
					if len(got) != len(want) {
						errs[g] = fmt.Errorf("spreadDivisors(%d,%d) = %v, want %v", q.n, q.max, got, want)
						return
					}
					for i := range got {
						if got[i] != want[i] {
							errs[g] = fmt.Errorf("spreadDivisors(%d,%d)[%d] = %d, want %d", q.n, q.max, i, got[i], want[i])
							return
						}
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

// sweepCost is a certified synthetic cost for TestWarmProbeSweep: the lower
// bound plus a penalty hashed from the mapping, rounded up to a grid of q
// cycles so that candidates on different spatial bases often tie. About one
// mapping in eleven is invalid.
func sweepCost(lb func(int) float64, q float64) candidateCost {
	return func(m *Mapping) (float64, bool) {
		h := uint64(m.DRAMStationary)*3 + uint64(m.NoCStationary)
		for _, fs := range m.F {
			for _, f := range fs {
				h = h*1_000_003 + uint64(f)
			}
		}
		h ^= h >> 29
		if h%11 == 0 {
			return 0, false
		}
		return q * math.Ceil((lb(m.SpatialPEs())+float64(h%4)*q/2)/q), true
	}
}

// sweepGolden holds TestWarmProbeSweep's digest per layer.
var sweepGolden = map[string]uint64{
	"b":  0x4e7a41c435abb2e6,
	"s2": 0x6a993ee4862620ac,
	"dw": 0xeca80a259d1a8101,
	"g":  0x2280e9dc2a17387c,
}

// TestWarmProbeSweep checks that the lower bound prunes without changing
// the answer where that is easiest to break, and pins the enumeration's
// candidate order and the pruned search's work. Over layers, buffer sizes
// that bind the fit filters, budgets that cut bands mid-base and subsets
// of the orderings, the synthetic cost ties often, and the bound prunes a
// candidate that could only tie the running best: the pruned answer must
// still equal the unpruned one, the first attainer of the best cycles. The
// digest folds in the unpruned run's priced candidates, in order, and the
// pruned run's CostCalls and LBPruned.
func TestWarmProbeSweep(t *testing.T) {
	layers := []workload.Layer{
		benchLayer(),
		{Kind: workload.Conv, Name: "s2", K: 128, C: 64, Y: 7, X: 7, R: 3, S: 3, Stride: 2, Mult: 1},
		{Kind: workload.DWConv, Name: "dw", K: 96, C: 96, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.Gemm, Name: "g", K: 256, C: 512, Y: 1, X: 1, R: 1, S: 1, Stride: 1, Mult: 1},
	}
	buffers := [][2]int{{512, 512 << 10}, {64, 16 << 10}, {32, 4 << 10}, {32, 1 << 10}}
	orderings := [][]Mapping{nil, allOrderings[4:5], allOrderings[2:4]}
	for _, l := range layers {
		_, lb := benchCost(l)
		q := lb(128)
		cost := sweepCost(lb, q)
		h := fnv.New64a()
		for _, buf := range buffers {
			// One walk serves every search of the key, so the small
			// budgets record prefixes the large ones extend.
			w := NewWalk[Mapping](l, 256, buf[0], buf[1])
			for _, maxN := range []int{40, 400} {
				for _, ords := range orderings {
					cfg := GenConfig{MinN: 10, MaxN: maxN, Orderings: ords}
					full := EnumeratePruned(w, cfg, &CostPricer{Layer: l, Cost: perCandidate(func(m *Mapping) (float64, bool) {
						fmt.Fprint(h, *m)
						return cost(m)
					})})
					pruned := EnumeratePruned(w, cfg, &CostPricer{Layer: l, Cost: perCandidate(cost), LB: lb})
					if pruned.Best != full.Best || pruned.Cycles != full.Cycles || pruned.Found != full.Found || pruned.Evaluated != full.Evaluated {
						t.Fatalf("%s %v %+v: pruned %+v diverged from unpruned %+v", l.Name, buf, cfg, pruned, full)
					}
					fmt.Fprint(h, pruned.CostCalls, pruned.LBPruned)
				}
			}
		}
		if got := h.Sum64(); got != sweepGolden[l.Name] {
			t.Errorf("layer %s: digest %#x, want %#x: the candidate order or the pruned work changed", l.Name, got, sweepGolden[l.Name])
		}
	}
}
