package eval

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xdse/internal/arch"
	"xdse/internal/energy"
	"xdse/internal/mapping"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// spaceWithDummyParam clones the edge space and appends a parameter the
// decoder does not recognize: points differing only in it are distinct cache
// keys that decode to identical designs. This models mapping-irrelevant
// design knobs (and gives tests/benchmarks a repeated-sub-key workload).
func spaceWithDummyParam(n int) *arch.Space {
	s := arch.EdgeSpace()
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i + 1
	}
	s.Params = append(s.Params, arch.Param{Name: "dram_pj_knob", Values: vals})
	return s
}

// campaignPoints returns a deterministic multi-design workload over the
// space: a spread of designs plus repeats under the dummy parameter when the
// space has one.
func campaignPoints(s *arch.Space, n int) []arch.Point {
	var pts []arch.Point
	base := compatiblePoint(s)
	hasDummy := len(base) > arch.NumParams
	for i := 0; len(pts) < n; i++ {
		pt := base.Clone()
		// With a dummy parameter, repeat each underlying design three
		// times under distinct dummy values so sub-keys recur; without
		// one, every point is a distinct design.
		j := i
		if hasDummy {
			j = i / 3
			pt[arch.NumParams] = s.Clamp(arch.NumParams, i%3)
		}
		pt[arch.PPEs] = s.Clamp(arch.PPEs, 1+j%4)
		pt[arch.PL1] = s.Clamp(arch.PL1, 3+(j/4)%3)
		pt[arch.PBW] = s.Clamp(arch.PBW, (j/12)%5)
		pts = append(pts, pt)
	}
	return pts
}

// resultsEquivalent compares everything the DSE consumes from two Results
// (costs, feasibility, per-layer mappings and breakdowns, trial counts).
func resultsEquivalent(a, b *Result) error {
	if a.LatencyMs != b.LatencyMs || a.EnergyMJ != b.EnergyMJ || a.Objective != b.Objective {
		return fmt.Errorf("costs differ: %v/%v vs %v/%v", a.LatencyMs, a.EnergyMJ, b.LatencyMs, b.EnergyMJ)
	}
	if a.Feasible != b.Feasible || a.BudgetUtil != b.BudgetUtil || a.MapEvaluations != b.MapEvaluations {
		return fmt.Errorf("feasibility/budget/trials differ: %v/%v/%d vs %v/%v/%d",
			a.Feasible, a.BudgetUtil, a.MapEvaluations, b.Feasible, b.BudgetUtil, b.MapEvaluations)
	}
	for mi := range a.Models {
		am, bm := a.Models[mi], b.Models[mi]
		if am.Cycles != bm.Cycles && !(math.IsInf(am.Cycles, 1) && math.IsInf(bm.Cycles, 1)) {
			return fmt.Errorf("model %d cycles differ: %v vs %v", mi, am.Cycles, bm.Cycles)
		}
		for li := range am.Layers {
			al, bl := am.Layers[li], bm.Layers[li]
			if al.Mapping != bl.Mapping {
				return fmt.Errorf("model %d layer %d mappings differ:\n%v\n%v", mi, li, al.Mapping, bl.Mapping)
			}
			if al.Perf != bl.Perf {
				return fmt.Errorf("model %d layer %d breakdowns differ", mi, li)
			}
			if al.MapTrials != bl.MapTrials || al.EnergyMJ != bl.EnergyMJ || al.Found != bl.Found {
				return fmt.Errorf("model %d layer %d trials/energy/found differ: %d/%v/%v vs %d/%v/%v",
					mi, li, al.MapTrials, al.EnergyMJ, al.Found, bl.MapTrials, bl.EnergyMJ, bl.Found)
			}
		}
	}
	return nil
}

func cacheTestConfig(s *arch.Space, mode MapperMode) Config {
	return Config{
		Space:       s,
		Models:      []*workload.Model{workload.ResNet18()},
		Constraints: EdgeConstraints(),
		Mode:        mode,
		MapTrials:   200,
		Seed:        1,
	}
}

// TestLayerCacheBitIdentical: across a multi-design campaign in every mapper
// mode, the cached evaluator must return bit-identical Result costs, best
// mappings, and trial counts versus cold searches, a fresh evaluator per
// design. In pruned mode the lower bound must also have spared some
// candidates their pricing.
func TestLayerCacheBitIdentical(t *testing.T) {
	s := spaceWithDummyParam(3)
	pts := campaignPoints(s, 24)
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		cfg := cacheTestConfig(s, mode)
		ew := New(cfg)
		for _, pt := range pts {
			rc, rw := New(cfg).Evaluate(pt), ew.Evaluate(pt)
			if err := resultsEquivalent(rc, rw); err != nil {
				t.Fatalf("%v point %v: %v", mode, pt.Key(), err)
			}
		}
		st := ew.Stats()
		if mode == PrunedMappings && st.CostCalls >= st.MapTrials {
			t.Errorf("pruned mode: lower-bound pruning saved nothing (%d cost calls / %d trials)",
				st.CostCalls, st.MapTrials)
		}
	}
}

// TestLayerCacheHitSkipsSearch: a dummy-parameter twin (distinct point key,
// identical design) finds nothing of the first design's in memory, since
// that design's Result holds its decisions. Without a store it searches every
// layer again; with a store attached it answers every layer from the first
// design's writes and runs no search. Either way it matches the first design.
func TestLayerCacheHitSkipsSearch(t *testing.T) {
	s := spaceWithDummyParam(2)
	a := compatiblePoint(s)
	b := a.Clone()
	b[arch.NumParams] = 1
	for _, store := range []bool{false, true} {
		cfg := cacheTestConfig(s, PrunedMappings)
		e := New(cfg)
		if store {
			e = newOver(t, cfg, t.TempDir())
		}
		ra := e.Evaluate(a)
		misses := e.Stats().LayerMisses
		rb := e.Evaluate(b)
		st := e.Stats()
		if st.Evaluations != 2 {
			t.Fatalf("store %v: expected 2 design evaluations (distinct keys), got %d", store, st.Evaluations)
		}
		want, hits := 2*misses, 0
		if store {
			want, hits = misses, misses
		}
		if st.LayerMisses != want || st.PersistHits != hits {
			t.Fatalf("store %v: the twin ran %d layer searches and %d store hits, want %d and %d",
				store, st.LayerMisses-misses, st.PersistHits, want-misses, hits)
		}
		if st.LayerHits != 0 {
			t.Fatalf("store %v: %d record-map hits on a local campaign, want 0", store, st.LayerHits)
		}
		if err := resultsEquivalent(ra, rb); err != nil {
			t.Fatalf("store %v: twin designs disagree: %v", store, err)
		}
	}
}

// TestDesignMemoEviction checks the bounded memo: exceeding the cap evicts
// FIFO, re-evaluating an evicted design is a recompute (not a new unique
// evaluation), and results stay correct after eviction.
func TestDesignMemoEviction(t *testing.T) {
	cfg := cacheTestConfig(arch.EdgeSpace(), FixedDataflow)
	e := New(cfg)
	e.cache.limit = 2
	s := cfg.Space
	pts := campaignPoints(s, 5)
	var first []*Result
	for _, pt := range pts {
		first = append(first, e.Evaluate(pt))
	}
	st := e.Stats()
	if st.Evaluations != len(pts) {
		t.Fatalf("evaluations = %d, want %d", st.Evaluations, len(pts))
	}
	if st.Evictions != len(pts)-2 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, len(pts)-2)
	}
	// The oldest point is long evicted: re-evaluating redoes the work as a
	// recompute without charging the unique-design budget.
	r := e.Evaluate(pts[0])
	st = e.Stats()
	if st.Evaluations != len(pts) {
		t.Fatalf("recompute charged the unique budget: %d", st.Evaluations)
	}
	if st.Recomputes != 1 {
		t.Fatalf("recomputes = %d, want 1", st.Recomputes)
	}
	if err := resultsEquivalent(first[0], r); err != nil {
		t.Fatalf("recomputed result differs: %v", err)
	}
	// The newest point is still resident: a pure hit.
	hits := st.CacheHits
	e.Evaluate(pts[len(pts)-1])
	if e.Stats().CacheHits != hits+1 {
		t.Fatal("resident design missed the memo")
	}
}

// TestEvaluateModelBoundsGoroutines checks that a design's layer searches
// run on at most Workers goroutines: a many-layer model under Workers=1 must
// not burst one goroutine per layer.
func TestEvaluateModelBoundsGoroutines(t *testing.T) {
	layers := make([]workload.Layer, 64)
	for i := range layers {
		layers[i] = workload.Layer{
			Kind: workload.Conv, Name: fmt.Sprintf("l%d", i),
			K: 8 * (i + 1), C: 16, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1,
		}
	}
	mdl := &workload.Model{Name: "many", Layers: layers, MaxLatencyMs: 1e9}
	cfg := cacheTestConfig(arch.EdgeSpace(), PrunedMappings)
	cfg.Models = []*workload.Model{mdl}
	cfg.Workers = 1
	e := New(cfg)

	base := runtime.NumGoroutine()
	var maxG int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if g := int64(runtime.NumGoroutine()); g > atomic.LoadInt64(&maxG) {
					atomic.StoreInt64(&maxG, g)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	e.Evaluate(compatiblePoint(cfg.Space))
	close(stop)
	<-done
	// Workers=1 permits the evaluating goroutine, one worker, the sampler,
	// and some slack for runtime/test goroutines — far below the 64-layer
	// burst of one goroutine per layer.
	if burst := atomic.LoadInt64(&maxG) - int64(base); burst > 16 {
		t.Fatalf("goroutine burst of %d under Workers=1 (64 layers)", burst)
	}
}

// TestLayerEnergyMJGolden pins layerEnergyMJ against hand-computed values on
// a synthetic breakdown with round numbers, covering multiplicity scaling
// and the zero-mult guard.
func TestLayerEnergyMJGolden(t *testing.T) {
	est := energy.Estimate{MACPJ: 2, RFAccessPJ: 1, L2AccessPJ: 4, NoCPerByte: 3, DRAMPerByte: 5}
	var b perf.Breakdown
	b.MACs = 100
	b.DataNoC = [arch.NumOperands]float64{10, 20, 30, 40} // sums to 100 bytes
	b.DataOffchip = [arch.NumOperands]float64{5, 10, 15, 20}

	// pJ = MACs*MACPJ + 3*MACs*RFAccessPJ + (noc/2)*L2AccessPJ
	//    + noc*NoCPerByte + dram*DRAMPerByte
	//    = 200 + 300 + 200 + 300 + 250 = 1250
	le := LayerEval{Layer: workload.Layer{Mult: 1}, Perf: b}
	if got, want := layerEnergyMJ(est, le), 1250e-9; math.Abs(got-want) > 1e-18 {
		t.Fatalf("mult=1: got %v, want %v", got, want)
	}
	le.Layer.Mult = 2
	if got, want := layerEnergyMJ(est, le), 2500e-9; math.Abs(got-want) > 1e-18 {
		t.Fatalf("mult=2: got %v, want %v", got, want)
	}
	// Zero/negative multiplicity is guarded to 1.
	le.Layer.Mult = 0
	if got, want := layerEnergyMJ(est, le), 1250e-9; math.Abs(got-want) > 1e-18 {
		t.Fatalf("mult=0 guard: got %v, want %v", got, want)
	}
}

// TestLayerEnergyMJRealLayers cross-checks layerEnergyMJ on real CONV and
// GEMM evaluations against the documented formula recomputed from the
// breakdown, so the golden test above cannot drift from the implementation.
func TestLayerEnergyMJRealLayers(t *testing.T) {
	d := arch.Design{PEs: 256, L1Bytes: 512, L2KB: 512, OffchipMBps: 8192, NoCWidthBits: 64, FreqMHz: 500}
	for op := range d.PhysLinks {
		d.PhysLinks[op] = 64
		d.VirtLinks[op] = 512
	}
	est := energy.Model{}.Estimate(d)
	layers := []workload.Layer{
		{Kind: workload.Conv, Name: "conv", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 3},
		{Kind: workload.Gemm, Name: "gemm", K: 128, C: 256, Y: 1, X: 1, R: 1, S: 1, Stride: 1, Mult: 2},
	}
	for _, l := range layers {
		m := mappingFor(t, d, l)
		b := perf.NewContext(d, l).Evaluate(m)
		if !b.Valid {
			t.Fatalf("%s: mapping invalid: %s", l.Name, b.Incompat)
		}
		le := LayerEval{Layer: l, Mapping: m, Perf: b}
		var dram, noc float64
		for _, op := range arch.Operands {
			dram += b.DataOffchip[op]
			noc += b.DataNoC[op]
		}
		pj := b.MACs*est.MACPJ + 3*b.MACs*est.RFAccessPJ +
			noc/workload.BytesPerElem*est.L2AccessPJ + noc*est.NoCPerByte + dram*est.DRAMPerByte
		want := pj * float64(l.Mult) * 1e-9
		if got := layerEnergyMJ(est, le); math.Abs(got-want) > 1e-15*math.Abs(want) {
			t.Fatalf("%s: got %v, want %v", l.Name, got, want)
		}
		if layerEnergyMJ(est, le) <= 0 {
			t.Fatalf("%s: non-positive energy", l.Name)
		}
	}
}

// mappingFor finds any valid mapping of l on d via the pruned enumerator.
func mappingFor(t *testing.T, d arch.Design, l workload.Layer) mapping.Mapping {
	t.Helper()
	res := perf.SearchPruned(nil, d, l, mapping.GenConfig{MinN: 10, MaxN: 200})
	if !res.Found {
		t.Fatalf("%s: no valid mapping on test design", l.Name)
	}
	return res.Best
}

// TestTierSplitStats checks the two-tier accounting: a pruned-mode campaign
// must report Tier-2 full evaluations (one per completed layer search) while
// the overwhelming majority of perf-model work stays on the Tier-1 fast
// path — FullEvals must be a small fraction of CostCalls.
func TestTierSplitStats(t *testing.T) {
	s := spaceWithDummyParam(2)
	pts := campaignPoints(s, 6)
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		e := New(cacheTestConfig(s, mode))
		for _, pt := range pts {
			e.Evaluate(pt)
		}
		st := e.Stats()
		if st.FullEvals == 0 {
			t.Errorf("%v: no Tier-2 full evaluations recorded", mode)
		}
		if mode == FixedDataflow {
			continue // fixed dataflow makes no search cost calls
		}
		if st.CostCalls == 0 {
			t.Errorf("%v: no Tier-1 cost calls recorded", mode)
			continue
		}
		if st.FullEvals*10 > st.CostCalls {
			t.Errorf("%v: FullEvals %d vs CostCalls %d — Tier 2 is not a small fraction of the work",
				mode, st.FullEvals, st.CostCalls)
		}
	}
}

// TestDeriveAllocatesNothing pins the cost of completing a layer record:
// every layer lookup derives one breakdown, so deriving a valid found mapping
// must keep its perf.EvalContext on the stack and allocate nothing.
func TestDeriveAllocatesNothing(t *testing.T) {
	e := newEval(PrunedMappings)
	space := e.Config().Space
	d, err := space.Decode(compatiblePoint(space))
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.slots[:4] {
		l := e.slots[i].layer
		dec := e.searchLayer(d, &e.slots[i])
		if b := e.derive(d, l, dec); !dec.Found || !b.Valid {
			t.Fatalf("%s: no valid mapping on the test design", l.Name)
		}
		if allocs := testing.AllocsPerRun(10, func() { e.derive(d, l, dec) }); allocs != 0 {
			t.Errorf("%s: deriving a breakdown allocates %.0f times, want 0", l.Name, allocs)
		}
	}
}
