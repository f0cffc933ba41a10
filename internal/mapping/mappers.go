package mapping

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"xdse/internal/workload"
)

// Cost prices one temporal fill under a list of stationary orderings: it
// sets cycles[i] to the latency, in cycles, of m's factor matrix m.F under
// the DRAM- and NoC-stationary tensors of orderings[i], or to +Inf when
// that candidate is invalid on the target design (overflows buffers or
// PEs, or is NoC time-sharing incompatible). It reads only the stationary
// fields of each orderings entry and ignores m's own; cycles has at least
// len(orderings) entries. Mappers are decoupled from the cost model through
// this callback, mirroring how the paper's mappers call into the
// dMazeRunner cost model.
//
// The unit is a fill, not a candidate, because everything but the refetch
// selection depends on the fill alone, and the pruned enumerator prices each
// fill under several orderings back to back (CostPricer adapts a Cost to
// it). A single mapping is priced as its own one-element list (see alone).
// A +Inf never wins a search: a valid candidate never costs +Inf. Every
// argument is owned by the caller: the callback must not mutate them and
// must not retain them past the call.
type Cost func(m *Mapping, orderings []Mapping, cycles []float64)

// alone is m as its own one-element ordering list, so that
// cost(m, alone(m), cycles[:1]) prices m under its own stationary pair.
// It aliases m rather than copying it: a copy would escape through the
// indirect cost call on every pricing.
func alone(m *Mapping) []Mapping { return unsafe.Slice(m, 1) }

// Result is the outcome of a mapping search.
type Result struct {
	Best      Mapping
	Cycles    float64
	Found     bool
	Evaluated int

	// CostCalls is the number of candidates priced through the cost
	// model; pricing a fill under nine orderings counts nine. Without
	// pruning it equals Evaluated; under a lower bound (Pricer.Base) it is
	// usually much smaller.
	CostCalls int
	// LBPruned counts candidates left unpriced because the lower bound
	// proved they could not beat the incumbent. Pruned candidates still
	// count toward Evaluated, so search trajectories (band budgets, trial
	// counts) are bit-identical with and without pruning.
	LBPruned int
}

// RandomSearch explores `trials` random valid-factor mappings (Timeloop-like
// random sampling over the factorization-constrained, reuse-aware space of
// §F) and returns the best valid one.
func RandomSearch(l workload.Layer, trials int, rng *rand.Rand, cost Cost) Result {
	dims := Dims(l)
	res := Result{Cycles: math.Inf(1)}
	// One scratch mapping and result slot outside the loop: their addresses
	// go through the indirect cost call, so per-iteration locals would
	// heap-escape every trial.
	var m Mapping
	var c [1]float64
	for i := 0; i < trials; i++ {
		m = Random(dims, rng)
		res.Evaluated++
		if cost(&m, alone(&m), c[:]); c[0] < res.Cycles {
			res.Best, res.Cycles, res.Found = m, c[0], true
		}
	}
	res.CostCalls = res.Evaluated
	return res
}

// pickSpread selects up to max values from vs, preferring the largest and a
// spread of smaller values; the ordering biases the pruned enumeration
// toward high-utilization tiles first (dMazeRunner's pruning heuristic).
func pickSpread(vs []int, max int) []int {
	if len(vs) <= max {
		out := make([]int, len(vs))
		copy(out, vs)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	out := make([]int, 0, max)
	for i := 0; i < max; i++ {
		idx := len(vs) - 1 - i*(len(vs)-1)/(max-1)
		v := vs[idx]
		dup := false
		for _, u := range out {
			if u == v {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// spreadKey indexes the memoized pickSpread-over-divisors lists.
type spreadKey struct{ n, max int }

// spreadShard is one shard of the spreadDivisors memo. Reads go through an
// atomically-published immutable map (no lock, no RLock cacheline write —
// the RWMutex reader count was measurable in the enumeration inner loop);
// writers clone-and-swap under the mutex.
type spreadShard struct {
	mu sync.Mutex
	m  atomic.Pointer[map[spreadKey][]int]
}

// spreadCache memoizes spreadDivisors, sharded by key so parallel
// enumerations (search.EvaluateBatch workers) do not serialize on a single
// global lock in their innermost loop: the enumeration asks for the same
// (dimension size, fan-out) pairs on every candidate, so the per-call map
// and slice allocations of the original hot loop collapse to lookups.
var spreadCache = func() *[memoShards]spreadShard {
	var s [memoShards]spreadShard
	for i := range s {
		m := map[spreadKey][]int{}
		s[i].m.Store(&m)
	}
	return &s
}()

// spreadDivisors returns pickSpread(Divisors(n), max), memoized. The
// returned slice is shared between callers and must be treated as read-only.
func spreadDivisors(n, max int) []int {
	k := spreadKey{n, max}
	sh := &spreadCache[(uint(n)*31+uint(max))%memoShards]
	if vs, ok := (*sh.m.Load())[k]; ok {
		return vs
	}
	vs := pickSpread(Divisors(n), max)
	sh.mu.Lock()
	cur := *sh.m.Load()
	if have, ok := cur[k]; ok {
		// A concurrent miss published first; return its slice so every
		// caller shares one canonical value.
		sh.mu.Unlock()
		return have
	}
	next := make(map[spreadKey][]int, len(cur)+1)
	for ck, cv := range cur {
		next[ck] = cv
	}
	next[k] = vs
	sh.m.Store(&next)
	sh.mu.Unlock()
	return vs
}

// FixedOutputStationary builds the SOC-MOP output-stationary dataflow of the
// paper's fixed-dataflow baselines: spatialize output rows/columns and
// channels, keep partial sums stationary per PE, and greedily size temporal
// tiles to the available buffers. The returned mapping may be incompatible
// with the design's NoC time-sharing budget — such hardware/mapping
// incompatibilities are exactly the infeasibilities §6.2 attributes to
// fixed-dataflow DSE.
func FixedOutputStationary(l workload.Layer, pes, l1Bytes, l2Bytes int) Mapping {
	dims := Dims(l)
	var m Mapping
	for d := Dim(0); d < NumDims; d++ {
		for lv := Level(0); lv < NumLevels; lv++ {
			m.F[d][lv] = 1
		}
	}
	m.DRAMStationary = TO
	m.NoCStationary = TO

	// fits reports whether the trial's RF and L2 tiles are within the
	// buffer capacities (the minimal all-ones mapping always is on any
	// non-degenerate design, so the greedy growth below is safe).
	fits := func(trial *Mapping) bool {
		return RFTileBytes(&l, trial) <= int64(l1Bytes) &&
			L2TileBytes(&l, trial) <= int64(l2Bytes)
	}
	rem := func(d Dim) int {
		return dims[d] / (m.Factor(d, LvlSpatial) * m.Factor(d, LvlRF) * m.Factor(d, LvlL2))
	}
	// grow multiplies dimension d's factor at level lv by the largest
	// remaining divisor (capped at limit) that keeps the tiles fitting.
	grow := func(d Dim, lv Level, limit int) {
		for _, f := range descendingDivisors(rem(d)) {
			if f > limit {
				continue
			}
			trial := m
			trial.F[d][lv] *= f
			if fits(&trial) {
				m = trial
				return
			}
		}
	}

	// Spatial: Y and X up to sqrt(PEs) each, K fills the remainder.
	budget := pes
	side := int(math.Sqrt(float64(pes)))
	grow(DimY, LvlSpatial, side)
	budget /= m.Factor(DimY, LvlSpatial)
	grow(DimX, LvlSpatial, side)
	budget /= m.Factor(DimX, LvlSpatial)
	grow(DimK, LvlSpatial, budget)

	// RF: filter taps first, then input channels and output channels.
	for _, d := range []Dim{DimR, DimS, DimC, DimK} {
		grow(d, LvlRF, dims[d])
	}
	// L2: channels first, then spatial extents.
	for _, d := range []Dim{DimC, DimK, DimY, DimX, DimR, DimS} {
		grow(d, LvlL2, dims[d])
	}

	// DRAM level takes the remainder.
	for d := Dim(0); d < NumDims; d++ {
		m.F[d][LvlDRAM] = rem(d)
	}
	return m
}

func descendingDivisors(n int) []int {
	ds := Divisors(n)
	out := make([]int, len(ds))
	for i, d := range ds {
		out[len(ds)-1-i] = d
	}
	return out
}
