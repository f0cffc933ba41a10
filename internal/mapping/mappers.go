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
// The unit is a fill, not a candidate, because the pruned enumerator emits
// each fill under several orderings back to back and everything but the
// refetch selection depends on the fill alone. A single mapping is priced
// as its own one-element list (see alone). A +Inf never wins a search: a
// valid candidate never costs +Inf. Every argument is owned by the caller:
// the callback must not mutate them and must not retain them past the
// call.
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
	// model; a Cost call that prices a fill under nine orderings counts
	// nine. Without pruning it equals Evaluated; with a GenConfig.CostLB
	// bound it is usually much smaller.
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

// GenConfig bounds the pruned enumeration.
type GenConfig struct {
	// PEs is the PE budget of the design under evaluation.
	PEs int
	// L1Bytes and L2Bytes are the buffer capacities used to prune
	// overflowing tiles before evaluation (dMazeRunner's buffer
	// utilization pruning); zero disables the corresponding filter.
	L1Bytes, L2Bytes int
	// MinN and MaxN bound the mapping-space budget; the generator relaxes
	// utilization thresholds until at least MinN candidates exist and
	// stops emitting after MaxN (the paper's auto-adjusted top-N space).
	MinN, MaxN int
	// BaseValid, when set, is consulted once per spatial tiling with a
	// minimal temporal fill; if it rejects, every mapping sharing that
	// spatial tiling is skipped (NoC-group demand and minimum tile
	// footprints depend only on the spatial factors). Like a Cost, it must
	// neither mutate nor retain the mapping.
	BaseValid func(*Mapping) bool
	// Orderings limits the stationary-tensor combinations to a subset of
	// the nine (DRAM, NoC) pairs, each listed at most once (default all
	// nine). Only their stationary fields are read.
	Orderings []Mapping

	// CostLB, when set, returns a certified lower bound on cost(m) for
	// any mapping occupying the given spatial PE count (e.g. the
	// compute-time floor MACs/PEs of the perf model). The enumeration
	// does not price candidates whose bound proves they cannot strictly
	// beat the incumbent; skipped candidates still count toward
	// Evaluated, so the candidate trajectory — and therefore the returned
	// best mapping and cycles — is bit-identical with or without the
	// bound. Only CostCalls/LBPruned change.
	CostLB func(spatialPEs int) float64
}

// defaultOrderings enumerates the 3x3 stationary-tensor choices.
func defaultOrderings() []Mapping {
	var out []Mapping
	for ds := Tensor(0); ds < NumTensors; ds++ {
		for ns := Tensor(0); ns < NumTensors; ns++ {
			out = append(out, Mapping{DRAMStationary: ds, NoCStationary: ns})
		}
	}
	return out
}

// allOrderings is the shared default ordering set (read-only).
var allOrderings = defaultOrderings()

// enumerator carries the running state of one pruned enumeration: the
// incumbent, the candidate counter, the pruning bound, and the working
// mapping and scratch buffers that keep the hot loop allocation-free.
type enumerator struct {
	cost      Cost
	orderings []Mapping

	// curLB is the lower bound of the current spatial base: -Inf without
	// a GenConfig.CostLB, which prunes nothing.
	curLB float64

	best       Mapping
	bestCycles float64
	found      bool

	n         int // candidates considered (the Evaluated count)
	limit     int // current band's candidate cap
	costCalls int
	pruned    int

	// cycles is the result scratch of one cost call: a fill's orderings
	// are a subset of the nine pairs.
	cycles [NumTensors * NumTensors]float64

	// bufs are the fit-filter scratch buffers of emitTemporal, one per
	// temporal nesting level (each holds at most 3 surviving factors).
	bufs [6][4]int
	// m is the one working mapping of the search: loadBase resets it to a
	// spatial base, emitTemporal and fitOptions vary its temporal factors
	// in place, and try hands its address, the fill, to the cost callback.
	// Its own stationary fields stay zero; the orderings carry them.
	m Mapping
}

// loadBase resets the working mapping to the spatial base with the given
// K, C, Y, X spatial factors: every other factor is 1, except that DRAM
// takes the rest of each dimension.
func (e *enumerator) loadBase(dims [NumDims]int, spatial [4]int) {
	e.m = Mapping{}
	for d := range e.m.F {
		e.m.F[d] = [NumLevels]int{LvlSpatial: 1, LvlRF: 1, LvlL2: 1, LvlDRAM: dims[d]}
	}
	for i, d := range [4]Dim{DimK, DimC, DimY, DimX} {
		e.m.F[d][LvlSpatial], e.m.F[d][LvlDRAM] = spatial[i], dims[d]/spatial[i]
	}
}

// try considers the working mapping's temporal fill under every ordering,
// up to the band limit, pricing them in one cost call. It returns false
// when the band's candidate budget is exhausted.
func (e *enumerator) try() bool {
	k := min(len(e.orderings), e.limit-e.n)
	if k == 0 || e.curLB >= e.bestCycles {
		// Nothing to price, or the bound proves no ordering of the fill
		// can strictly beat the incumbent: count them in one step.
		e.n += k
		e.pruned += k
		return e.n < e.limit
	}
	e.cost(&e.m, e.orderings[:k], e.cycles[:k])
	for i, c := range e.cycles[:k] {
		e.n++
		if e.curLB >= e.bestCycles {
			// An earlier ordering of this fill brought the running
			// best down to the bound.
			e.pruned++
			continue
		}
		e.costCalls++
		// Candidates arrive in index order, so a strict improvement keeps
		// the first attainer of the best cycles; for the same reason the
		// bound may prune a candidate that could only tie. An invalid
		// candidate costs +Inf and never wins.
		if c < e.bestCycles {
			e.best = e.m
			e.best.DRAMStationary, e.best.NoCStationary = e.orderings[i].DRAMStationary, e.orderings[i].NoCStationary
			e.bestCycles, e.found = c, true
		}
	}
	return e.n < e.limit
}

// EnumeratePruned performs the dMazeRunner/Interstellar-style search of
// §4.8: it formulates a pruned space of at most MaxN high-utilization
// mappings (relaxing PE-utilization thresholds iteratively if the strict
// space is smaller than MinN) and evaluates it linearly.
//
// When GenConfig.CostLB is set, candidates that provably cannot beat the
// incumbent are not priced (but still count toward Evaluated), so the
// returned best mapping and cycles are bit-identical to an unpruned run —
// only CostCalls and LBPruned vary.
func EnumeratePruned(l workload.Layer, cfg GenConfig, cost Cost) Result {
	dims := Dims(l)
	if cfg.MaxN <= 0 {
		cfg.MaxN = 2000
	}
	if cfg.MinN <= 0 {
		cfg.MinN = 10
	}
	orderings := cfg.Orderings
	if orderings == nil {
		orderings = allOrderings
	}

	e := &enumerator{
		cost:       cost,
		orderings:  orderings,
		curLB:      math.Inf(-1),
		bestCycles: math.Inf(1),
	}

	// Utilization bands are explored from high PE utilization downward,
	// each with its own slice of the budget, so the search prefers
	// high-utilization tiles (dMazeRunner's pruning) but still reaches
	// low-parallelism mappings when links or buffers rule the big ones
	// out. Unused slices roll over to the next band.
	bands := [][2]float64{{0.75, 1.0}, {0.5, 0.75}, {0.25, 0.5}, {0, 0.25}}
	budget := cfg.MaxN
	for i, band := range bands {
		share := budget / (len(bands) - i)
		if share < cfg.MinN {
			share = cfg.MinN
		}
		if share > budget {
			share = budget
		}
		start := e.n
		e.limit = e.n + share
		e.enumerateAt(&l, dims, cfg, band[0], band[1])
		budget -= e.n - start
		if budget <= 0 {
			break
		}
	}

	// Without a winner best is still the zero mapping and bestCycles +Inf.
	return Result{Best: e.best, Cycles: e.bestCycles, Found: e.found,
		Evaluated: e.n, CostCalls: e.costCalls, LBPruned: e.pruned}
}

// enumerateAt runs one enumeration pass over spatial tilings whose PE
// utilization falls in [minUtil, maxUtil], capped at the enumerator's
// current band limit.
func (e *enumerator) enumerateAt(l *workload.Layer, dims [NumDims]int, cfg GenConfig, minUtil, maxUtil float64) {
	const perDim = 6
	optK := spreadDivisors(dims[DimK], perDim)
	optC := spreadDivisors(dims[DimC], perDim)
	optY := spreadDivisors(dims[DimY], perDim)
	optX := spreadDivisors(dims[DimX], perDim)

	for _, sk := range optK {
		for _, sc := range optC {
			for _, sy := range optY {
				for _, sx := range optX {
					pes := sk * sc * sy * sx
					util := float64(pes) / float64(cfg.PEs)
					if pes > cfg.PEs || util < minUtil || util > maxUtil {
						continue
					}
					e.loadBase(dims, [4]int{sk, sc, sy, sx})
					// One validity probe per spatial base: NoC-group
					// demand and minimum tile footprints depend only
					// on the spatial factors, so a rejected base
					// cannot host any valid mapping.
					if cfg.BaseValid != nil && !cfg.BaseValid(&e.m) {
						continue
					}
					if cfg.CostLB != nil {
						e.curLB = cfg.CostLB(pes)
					}
					if !e.emitTemporal(l, dims, cfg) {
						return
					}
				}
			}
		}
	}
}

// fitOptions filters candidate factors of dimension d at level lv (LvlRF or
// LvlL2) to those whose resulting tile fits that level's buffer, appending
// survivors to dst (a scratch buffer owned by the enumerator). It varies m's
// factor in place and restores it before returning.
func fitOptions(l *workload.Layer, m *Mapping, d Dim, lv Level, factors []int, capacity int, dst []int) []int {
	if capacity <= 0 {
		return factors
	}
	out := dst
	f0 := m.F[d][lv]
	for _, f := range factors {
		m.F[d][lv] = f
		if tileBytes(l, m, lv) <= int64(capacity) {
			out = append(out, f)
		}
	}
	m.F[d][lv] = f0
	return out
}

// tileBytes is the footprint of m's tiles at level lv: RFTileBytes at LvlRF,
// L2TileBytes at LvlL2. The calls are direct, so the layer pointer does not
// escape.
func tileBytes(l *workload.Layer, m *Mapping, lv Level) int64 {
	if lv == LvlRF {
		return RFTileBytes(l, m)
	}
	return L2TileBytes(l, m)
}

// emitTemporal fills the RF/L2/DRAM factors of K,C,Y,X around the spatial
// base in the working mapping — pruning register-file and scratchpad
// overflows before evaluation — and emits candidate mappings until the band
// budget is exhausted. Filter taps are placed at the RF level when they fit,
// at the L2/DRAM boundary otherwise.
//
// The walk is in place: each nesting level sets its factor and restores the
// base's value, 1, after its loop, since the L2 fit filters read every
// dimension's L2 factor. (Option lists end with 1 today, so the restores
// keep the walk right for any option order rather than fix a live case.)
// An early return leaves a fill behind; every caller loads a base before
// the next walk.
func (e *enumerator) emitTemporal(l *workload.Layer, dims [NumDims]int, cfg GenConfig) bool {
	m := &e.m
	// Prefer filter taps resident in the RF (maximal convolution reuse).
	r, s := m.F[DimR], m.F[DimS]
	m.F[DimR][LvlRF], m.F[DimR][LvlDRAM] = dims[DimR]/r[LvlSpatial], 1
	m.F[DimS][LvlRF], m.F[DimS][LvlDRAM] = dims[DimS]/s[LvlSpatial], 1
	if cfg.L1Bytes > 0 && RFTileBytes(l, m) > int64(cfg.L1Bytes) {
		m.F[DimR], m.F[DimS] = r, s
	}

	remK := dims[DimK] / m.F[DimK][LvlSpatial]
	remC := dims[DimC] / m.F[DimC][LvlSpatial]
	remY := dims[DimY] / m.F[DimY][LvlSpatial]
	remX := dims[DimX] / m.F[DimX][LvlSpatial]
	// The Y and X option lists depend only on the base.
	optY, optX := spreadDivisors(remY, 3), spreadDivisors(remX, 2)

	rfK := fitOptions(l, m, DimK, LvlRF, spreadDivisors(remK, 3), cfg.L1Bytes, e.bufs[0][:0])
	for _, fk := range rfK {
		m.F[DimK][LvlRF] = fk
		rfC := fitOptions(l, m, DimC, LvlRF, spreadDivisors(remC, 3), cfg.L1Bytes, e.bufs[1][:0])
		for _, fc := range rfC {
			m.F[DimC][LvlRF] = fc
			l2K := fitOptions(l, m, DimK, LvlL2, spreadDivisors(remK/fk, 3), cfg.L2Bytes, e.bufs[2][:0])
			for _, gk := range l2K {
				m.F[DimK][LvlL2] = gk
				l2C := fitOptions(l, m, DimC, LvlL2, spreadDivisors(remC/fc, 3), cfg.L2Bytes, e.bufs[3][:0])
				for _, gc := range l2C {
					m.F[DimC][LvlL2] = gc
					l2Y := fitOptions(l, m, DimY, LvlL2, optY, cfg.L2Bytes, e.bufs[4][:0])
					for _, gy := range l2Y {
						m.F[DimY][LvlL2] = gy
						l2X := fitOptions(l, m, DimX, LvlL2, optX, cfg.L2Bytes, e.bufs[5][:0])
						for _, gx := range l2X {
							m.F[DimX][LvlL2] = gx
							m.F[DimK][LvlDRAM] = remK / fk / gk
							m.F[DimC][LvlDRAM] = remC / fc / gc
							m.F[DimY][LvlDRAM] = remY / gy
							m.F[DimX][LvlDRAM] = remX / gx
							if !e.try() {
								return false
							}
						}
						m.F[DimX][LvlL2] = 1
					}
					m.F[DimY][LvlL2] = 1
				}
				m.F[DimC][LvlL2] = 1
			}
			m.F[DimK][LvlL2] = 1
		}
		m.F[DimC][LvlRF] = 1
	}
	m.F[DimK][LvlRF] = 1
	return true
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
