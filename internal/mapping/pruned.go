package mapping

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"xdse/internal/workload"
)

// GenConfig bounds one pruned enumeration.
type GenConfig struct {
	// MinN and MaxN bound the mapping-space budget; the generator relaxes
	// utilization thresholds until at least MinN candidates exist and
	// stops emitting after MaxN (the paper's auto-adjusted top-N space).
	MinN, MaxN int
	// Orderings limits the stationary-tensor combinations to a subset of
	// the nine (DRAM, NoC) pairs, each listed at most once (default all
	// nine). Only their stationary fields are read.
	Orderings []Mapping
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

// utilBands are the PE-utilization bands of the pruned enumeration, from
// high utilization downward. Each gets its own slice of the budget, so the
// search prefers high-utilization tiles (dMazeRunner's pruning) but still
// reaches low-parallelism mappings when links or buffers rule the big ones
// out; unused slices roll over to the next band. The bands are closed at
// both ends, so a base at exactly 25%, 50% or 75% of the PEs is visited in
// two bands.
var utilBands = [...][2]float64{{0.75, 1.0}, {0.5, 0.75}, {0.25, 0.5}, {0, 0.25}}

// spatialDims are the dimensions a spatial base spreads over the PEs, in
// the order of Base.Spatial.
var spatialDims = [4]Dim{DimK, DimC, DimY, DimX}

// Base is the record of one spatial base of a walk: a spatial tiling of K,
// C, Y and X whose minimal fill keeps every other factor at 1 except DRAM,
// which takes the rest of each dimension. The walk's key fixes all of it.
type Base struct {
	// Spatial holds the K, C, Y and X spatial factors.
	Spatial [4]int
	// PEs is the number of PEs the base occupies.
	PEs int
	// RFBytes and L2Bytes are the RF and scratchpad footprints of the
	// minimal fill. No fill of the base has a smaller one.
	RFBytes, L2Bytes int64
	// Groups[t] is the number of PE groups that need distinct data of
	// tensor t: the product of the spatial factors of the dimensions that
	// index t. Every fill of the base shares it.
	Groups [NumTensors]int
}

// Pricer prices one pruned enumeration on one design. The enumeration calls
// Base once per spatial base it visits, and Price for fills of the base the
// last Base call accepted. Record runs when a walk first reaches a fill, on
// behalf of whichever search extends the walk, so the state it records
// must depend on nothing the walk's key does not fix: every later search of
// the key prices the fill from it, and it runs under the walk's lock, so it
// must not call back into the walk. None of the methods may retain its
// arguments.
type Pricer[F any] interface {
	// Base reports whether any fill of base b can be valid on the design,
	// and a certified lower bound on the cycles of every candidate on b
	// (-Inf prunes nothing).
	Base(b *Base) (lb float64, ok bool)
	// Record sets st to the state of fill m, its factor matrix with zero
	// stationary fields.
	Record(m *Mapping, st *F)
	// Price returns the cycles of the recorded fill under each of
	// orderings, +Inf for an invalid candidate, in a slice valid until the
	// next call. Only the orderings' stationary fields are read.
	Price(st *F, orderings []Mapping) []float64
}

// Walk is the pruned mapping space of one key, a layer shape under a PE
// budget and RF and scratchpad capacities, as far as searches have walked
// it. It holds:
//   - per utilization band, the spatial bases visited, in scan order;
//   - per base, its Base record, its fill count once a walk has reached
//     its end, and a prefix of its temporal fills;
//   - per recorded fill, the pricer's state F of the fill (Pricer.Record)
//     and the code of its temporal factors, from which it is rebuilt.
//
// None of it depends on the design priced beyond the key, so every pruned
// search of the key replays one Walk instead of re-deriving the space. A
// base on a band edge is one record linked into both bands. A search
// extends the walk only where it goes further than every earlier search:
// past a band's last scanned base or a base's recorded fills. Extensions
// run under the walk's lock; a published prefix is never modified, so
// concurrent searches replay it without locking.
type Walk[F any] struct {
	l       workload.Layer
	dims    [NumDims]int
	pes     int
	l1, l2  int
	idxMask [NumTensors]uint8 // bit d is set when dimension d indexes tensor t
	spatial [4][]int          // the spatial options of K, C, Y and X

	mu      sync.Mutex
	bands   [len(utilBands)]bandWalk[F]
	baseBuf []walkBase[F]         // unused records of the current base slab
	fillBuf []walkFill[F]         // spare capacity of the last fill chunk
	slab0   [baseSlab]walkBase[F] // the first base slab
}

// bandWalk is one utilization band of a walk: a linked list of its bases in
// scan order.
type bandWalk[F any] struct {
	first atomic.Pointer[walkBase[F]]
	// Guarded by Walk.mu.
	last *walkBase[F]
	// scan holds the next K, C, Y and X spatial options to consider. A
	// dimension has at most 6, and bytes keep a Walk with its first base
	// slab within 1 KiB.
	scan [4]uint8
}

// walkBase is a base of a walk with the recorded prefix of its fills.
type walkBase[F any] struct {
	Base
	home int  // the base's highest band; an edge base is also in home+1
	taps bool // the fills hold the filter taps R and S in the RF
	// next[i] is the next base of band home+i.
	next  [2]atomic.Pointer[walkBase[F]]
	fills atomic.Pointer[walkFill[F]] // the first recorded fill
	n     atomic.Int32                // recorded fills
	total atomic.Int32                // fills in the base; -1 until a walk reaches its end
}

// walkFill is one recorded fill: its pricer state and the indices of its
// six temporal factors in their option lists, two bits each (see
// walkFills).
type walkFill[F any] struct {
	st   F
	code uint16
}

// baseSlab is the number of base records a walk allocates at once, the
// first slab inline in the Walk. A walkBase is 128 bytes, so a slab is one
// 512-byte size class: most walks visit a handful of bases, and a larger
// slab adds more unused bytes than it saves allocations.
const baseSlab = 4

// fillChunk is the fewest fill records a walk allocates at once.
const fillChunk = 32

// NewWalk starts the walk of layer l's pruned mapping space under a budget
// of pes PEs and l1Bytes/l2Bytes of RF and scratchpad. The walk prunes
// fills whose RF or scratchpad tile overflows its capacity (dMazeRunner's
// buffer utilization pruning); a zero capacity disables that filter.
func NewWalk[F any](l workload.Layer, pes, l1Bytes, l2Bytes int) *Walk[F] {
	w := &Walk[F]{l: l, dims: Dims(l), pes: pes, l1: l1Bytes, l2: l2Bytes}
	w.baseBuf = w.slab0[:]
	const perDim = 6
	for i, d := range spatialDims {
		w.spatial[i] = spreadDivisors(w.dims[d], perDim)
	}
	for t := Tensor(0); t < NumTensors; t++ {
		for _, d := range TensorDims(l.Kind, t) {
			w.idxMask[t] |= 1 << uint(d)
		}
	}
	return w
}

// EnumeratePruned performs the dMazeRunner/Interstellar-style search of
// §4.8 over walk w: it formulates a pruned space of at most MaxN
// high-utilization mappings (relaxing PE-utilization thresholds band by
// band if the strict space is smaller than MinN) and evaluates it
// linearly, pricing through p.
//
// A candidate whose base's lower bound proves it cannot strictly beat the
// incumbent is not priced but still counts toward Evaluated, so the
// candidate sequence, and with it the returned best mapping and cycles, is
// the same under any bound. Only CostCalls and LBPruned vary. The sequence
// depends on nothing but the walk's key, the budget and the bases p
// rejects, so searches of one key on different designs replay one walk.
func EnumeratePruned[F any](w *Walk[F], cfg GenConfig, p Pricer[F]) Result {
	if cfg.MaxN <= 0 {
		cfg.MaxN = 2000
	}
	if cfg.MinN <= 0 {
		cfg.MinN = 10
	}
	s := search[F]{w: w, p: p, ords: cfg.Orderings, bestCycles: math.Inf(1)}
	if s.ords == nil {
		s.ords = allOrderings
	}
	if len(s.ords) == 0 {
		return Result{Cycles: s.bestCycles}
	}
	budget := cfg.MaxN
	for i := range utilBands {
		share := budget / (len(utilBands) - i)
		if share < cfg.MinN {
			share = cfg.MinN
		}
		if share > budget {
			share = budget
		}
		start := s.n
		s.limit = s.n + share
		s.band(i)
		budget -= s.n - start
		if budget <= 0 {
			break
		}
	}

	// Without a winner Best is the zero mapping and Cycles +Inf.
	res := Result{Cycles: s.bestCycles, Found: s.best != nil, Evaluated: s.n,
		CostCalls: s.costCalls, LBPruned: s.pruned}
	if s.best != nil {
		res.Best = w.fillMapping(&s.best.Base, s.best.taps, s.bestCode)
		o := s.ords[s.bestOrd]
		res.Best.DRAMStationary, res.Best.NoCStationary = o.DRAMStationary, o.NoCStationary
	}
	return res
}

// search is the running state of one pruned enumeration: the incumbent,
// the candidate counter and the band limit.
type search[F any] struct {
	w    *Walk[F]
	p    Pricer[F]
	ords []Mapping

	n         int // candidates considered (the Evaluated count)
	limit     int // current band's candidate cap
	costCalls int
	pruned    int

	bestCycles float64
	best       *walkBase[F] // the incumbent's base, nil until one is found
	bestCode   uint16
	bestOrd    int
}

// band runs the enumeration over band i's bases until the band limit.
func (s *search[F]) band(i int) {
	for b := s.w.next(i, nil); b != nil; b = s.w.next(i, b) {
		if lb, ok := s.p.Base(&b.Base); ok && !s.fills(b, lb) {
			return
		}
	}
}

// need is the number of fills that exhaust the band limit.
func (s *search[F]) need() int { return (s.limit - s.n + len(s.ords) - 1) / len(s.ords) }

// fills considers base b's fills in walk order, each under the orderings,
// up to the band limit, and reports whether the band has budget left. lb is
// the base's bound: once the running best falls to it, no candidate left on
// the base can strictly beat the incumbent, and they are counted unpriced.
func (s *search[F]) fills(b *walkBase[F], lb float64) bool {
	recs := b.recorded()
	for f := 0; ; f++ {
		if lb >= s.bestCycles {
			c := min(s.w.countFrom(b, f, s.need())*len(s.ords), s.limit-s.n)
			s.n += c
			s.pruned += c
			return s.n < s.limit
		}
		if f == len(recs) {
			if recs = s.w.extend(b, f+s.need(), s.p); f == len(recs) {
				return true
			}
		}
		k := min(len(s.ords), s.limit-s.n)
		for o, c := range s.p.Price(&recs[f].st, s.ords[:k]) {
			s.n++
			if lb >= s.bestCycles {
				// An earlier ordering of this fill brought the running
				// best down to the bound.
				s.pruned++
				continue
			}
			s.costCalls++
			// Candidates arrive in index order, so a strict improvement
			// keeps the first attainer of the best cycles; for the same
			// reason the bound may prune a candidate that could only tie.
			// An invalid candidate costs +Inf and never wins.
			if c < s.bestCycles {
				s.best, s.bestCode, s.bestOrd, s.bestCycles = b, recs[f].code, o, c
			}
		}
		if s.n >= s.limit {
			return false
		}
	}
}

// recorded returns the published prefix of b's recorded fills.
func (b *walkBase[F]) recorded() []walkFill[F] {
	n := b.n.Load()
	if n == 0 {
		return nil
	}
	return unsafe.Slice(b.fills.Load(), n)
}

// next returns the base after b in band i, or the band's first base when b
// is nil; nil means the band has no more.
func (w *Walk[F]) next(i int, b *walkBase[F]) *walkBase[F] {
	link := &w.bands[i].first
	if b != nil {
		link = &b.next[i-b.home]
	}
	if nb := link.Load(); nb != nil {
		return nb
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if nb := link.Load(); nb != nil {
		return nb
	}
	return w.scan(i)
}

// scan finds band i's next base in scan order, over the spatial options of
// K, C, Y and X nested in that order, and links it after the band's last
// base; nil means the band has no more. It resumes where the band's last
// scan stopped. w.mu must be held.
func (w *Walk[F]) scan(i int) *walkBase[F] {
	bw := &w.bands[i]
	lo, hi := utilBands[i][0], utilBands[i][1]
	o, p := &w.spatial, &bw.scan
	for ; int(p[0]) < len(o[0]); p[0], p[1] = p[0]+1, 0 {
		for ; int(p[1]) < len(o[1]); p[1], p[2] = p[1]+1, 0 {
			for ; int(p[2]) < len(o[2]); p[2], p[3] = p[2]+1, 0 {
				for ; int(p[3]) < len(o[3]); p[3]++ {
					sp := [4]int{o[0][p[0]], o[1][p[1]], o[2][p[2]], o[3][p[3]]}
					pes := sp[0] * sp[1] * sp[2] * sp[3]
					util := float64(pes) / float64(w.pes)
					if pes > w.pes || util < lo || util > hi {
						continue
					}
					p[3]++
					b := w.base(i, sp, pes, util)
					if bw.last == nil {
						bw.first.Store(b)
					} else {
						bw.last.next[i-bw.last.home].Store(b)
					}
					bw.last = b
					return b
				}
			}
		}
	}
	return nil
}

// base returns the record of the base with spatial factors sp that band
// i's scan reached, creating it unless it sits on a band edge and the other
// band's scan created it first. w.mu must be held.
func (w *Walk[F]) base(i int, sp [4]int, pes int, util float64) *walkBase[F] {
	home := i
	if i > 0 && util == utilBands[i][1] {
		home = i - 1
	}
	if home < len(utilBands)-1 && util == utilBands[home][0] {
		// An edge base is in bands home and home+1. If the other band's
		// scan reached it first, it is on that band's list; edge bases are
		// few and lists short, so the list is searched.
		j := home
		if i == home {
			j = home + 1
		}
		for b := w.bands[j].first.Load(); b != nil; b = b.next[j-b.home].Load() {
			if b.Spatial == sp {
				return b
			}
		}
	}
	if len(w.baseBuf) == 0 {
		w.baseBuf = make([]walkBase[F], baseSlab)
	}
	b := &w.baseBuf[0]
	w.baseBuf = w.baseBuf[1:]
	b.home, b.Spatial, b.PEs = home, sp, pes
	var m Mapping
	loadBase(&m, w.dims, sp)
	b.RFBytes, b.L2Bytes = RFTileBytes(&w.l, &m), L2TileBytes(&w.l, &m)
	for t := range b.Groups {
		b.Groups[t] = 1
		for j, d := range spatialDims {
			if w.idxMask[t]&(1<<uint(d)) != 0 {
				b.Groups[t] *= sp[j]
			}
		}
	}
	placeTaps(&m, w.dims)
	b.taps = w.fitsRF(&m)
	b.total.Store(-1)
	return b
}

// countFrom returns how many of b's fills follow the first f, or need if
// there are at least that many. Counting an unfinished base walks it to its
// end once, recording no state: a base the bound prunes needs only its
// count.
func (w *Walk[F]) countFrom(b *walkBase[F], f, need int) int {
	if int(b.n.Load()) >= f+need {
		return need
	}
	if t := b.total.Load(); t >= 0 {
		return min(int(t)-f, need)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if b.total.Load() < 0 {
		m := walkers.Get().(*Mapping)
		_, n, _ := walkFills[F](w, m, &b.Base, b.taps, math.MaxInt, nil, 0, nil)
		walkers.Put(m)
		b.total.Store(int32(n))
	}
	return min(int(b.total.Load())-f, need)
}

// extend records b's fills up to target, or to the base's end, and returns
// the recorded prefix. A base extended again gets at least twice its
// recorded fills, so a base that many searches reach deep is re-walked
// only a few times.
func (w *Walk[F]) extend(b *walkBase[F], target int, p Pricer[F]) []walkFill[F] {
	w.mu.Lock()
	defer w.mu.Unlock()
	old := b.recorded()
	total := int(b.total.Load())
	if len(old) >= target || len(old) == total {
		return old
	}
	target = max(target, 2*len(old))
	if total >= 0 {
		target = min(target, total)
	}
	// Fills are carved from chunks the walk's records share: a walk appends
	// to the spare capacity of the last chunk, and what it leaves serves the
	// next one. The spare serves an extension when it holds the recorded
	// fills and one more, and the whole target or at least fillChunk fills.
	// Otherwise the extension moves to a new region sized once for its
	// target, up to 4*fillChunk fills; past what a region holds, append
	// doubles it. A base's fill count is unknown until a walk reaches its
	// end, so sizing regions to larger targets would strand the rest of the
	// spare. A base's fills stay contiguous.
	buf := w.fillBuf
	if cap(buf) < max(len(old)+1, min(target, fillChunk)) {
		buf = make([]walkFill[F], 0, max(2*len(old), fillChunk, min(target, 4*fillChunk)))
	}
	m := walkers.Get().(*Mapping)
	recs, n, end := walkFills(w, m, &b.Base, b.taps, len(old), append(buf, old...), target, p)
	walkers.Put(m)
	w.fillBuf = recs[len(recs):]
	recs = recs[:len(recs):len(recs)]
	if end {
		b.total.Store(int32(n))
	}
	if len(recs) > 0 {
		// Publish the fills before their count: a reader that sees the
		// count sees fills at least that long.
		b.fills.Store(&recs[0])
	}
	b.n.Store(int32(len(recs)))
	return recs
}

// walkers pools the working mapping of walkFills: Pricer.Record receives it
// through an interface, so it lives on the heap.
var walkers = sync.Pool{New: func() any { return new(Mapping) }}

// fitsRF and fitsL2 report whether m's RF and scratchpad tiles fit the
// walk's capacities.
func (w *Walk[F]) fitsRF(m *Mapping) bool {
	return w.l1 <= 0 || RFTileBytes(&w.l, m) <= int64(w.l1)
}

func (w *Walk[F]) fitsL2(m *Mapping) bool {
	return w.l2 <= 0 || L2TileBytes(&w.l, m) <= int64(w.l2)
}

// loadBase resets m to the minimal fill of the base with K, C, Y, X
// spatial factors sp: every other factor is 1, except that DRAM takes the
// rest of each dimension.
func loadBase(m *Mapping, dims [NumDims]int, sp [4]int) {
	*m = Mapping{}
	for d := range m.F {
		m.F[d] = [NumLevels]int{LvlSpatial: 1, LvlRF: 1, LvlL2: 1, LvlDRAM: dims[d]}
	}
	for i, d := range spatialDims {
		m.F[d][LvlSpatial], m.F[d][LvlDRAM] = sp[i], dims[d]/sp[i]
	}
}

// placeTaps moves the filter taps R and S of a minimal fill into the RF, for
// maximal convolution reuse; the walk keeps them there when they fit.
func placeTaps(m *Mapping, dims [NumDims]int) {
	m.F[DimR][LvlRF], m.F[DimR][LvlDRAM] = dims[DimR], 1
	m.F[DimS][LvlRF], m.F[DimS][LvlDRAM] = dims[DimS], 1
}

// temporalOptions are the option lists of a base's temporal factors that do
// not depend on an outer choice: RF K and C, and L2 Y and X.
func temporalOptions(rem [4]int) (rfK, rfC, l2Y, l2X []int) {
	return spreadDivisors(rem[0], 3), spreadDivisors(rem[1], 3), spreadDivisors(rem[2], 3), spreadDivisors(rem[3], 2)
}

// remainders returns what the spatial factors of b leave of K, C, Y and X.
func (w *Walk[F]) remainders(b *Base) (rem [4]int) {
	for i, d := range spatialDims {
		rem[i] = w.dims[d] / b.Spatial[i]
	}
	return rem
}

// walkFills walks the fills of base b in order: it fills the RF, L2 and
// DRAM factors of K, C, Y and X around the base, pruning RF and scratchpad
// overflows, with the filter taps in the RF when taps is set. Fills from
// index from on are appended to recs with their state (p.Record) until
// recs holds stop fills. It returns recs, the number of fills walked, and
// whether the walk reached the base's end.
//
// The walk is in place: each nesting level sets its factor and restores the
// base's value, 1, after its loop, since the fit checks read every factor
// of their level. A factor is checked with the inner levels at 1, which is
// the fit the options of its level are filtered by.
func walkFills[F any](w *Walk[F], m *Mapping, b *Base, taps bool, from int, recs []walkFill[F], stop int, p Pricer[F]) ([]walkFill[F], int, bool) {
	loadBase(m, w.dims, b.Spatial)
	if taps {
		placeTaps(m, w.dims)
	}
	rem := w.remainders(b)
	rfK, rfC, l2Y, l2X := temporalOptions(rem)
	n := 0
	for i0, fk := range rfK {
		if m.F[DimK][LvlRF] = fk; !w.fitsRF(m) {
			continue
		}
		for i1, fc := range rfC {
			if m.F[DimC][LvlRF] = fc; !w.fitsRF(m) {
				continue
			}
			for i2, gk := range spreadDivisors(rem[0]/fk, 3) {
				if m.F[DimK][LvlL2] = gk; !w.fitsL2(m) {
					continue
				}
				for i3, gc := range spreadDivisors(rem[1]/fc, 3) {
					if m.F[DimC][LvlL2] = gc; !w.fitsL2(m) {
						continue
					}
					for i4, gy := range l2Y {
						if m.F[DimY][LvlL2] = gy; !w.fitsL2(m) {
							continue
						}
						for i5, gx := range l2X {
							if m.F[DimX][LvlL2] = gx; !w.fitsL2(m) {
								continue
							}
							if n >= from {
								if len(recs) == stop {
									return recs, n, false
								}
								m.F[DimK][LvlDRAM] = rem[0] / fk / gk
								m.F[DimC][LvlDRAM] = rem[1] / fc / gc
								m.F[DimY][LvlDRAM] = rem[2] / gy
								m.F[DimX][LvlDRAM] = rem[3] / gx
								recs = append(recs, walkFill[F]{code: uint16(i0 | i1<<2 | i2<<4 | i3<<6 | i4<<8 | i5<<10)})
								p.Record(m, &recs[len(recs)-1].st)
							}
							n++
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
	return recs, n, true
}

// fillMapping rebuilds the fill of base b with the given code, as walkFills
// walked it.
func (w *Walk[F]) fillMapping(b *Base, taps bool, code uint16) Mapping {
	var m Mapping
	loadBase(&m, w.dims, b.Spatial)
	if taps {
		placeTaps(&m, w.dims)
	}
	rem := w.remainders(b)
	rfK, rfC, l2Y, l2X := temporalOptions(rem)
	fk, fc := rfK[code&3], rfC[code>>2&3]
	gk, gc := spreadDivisors(rem[0]/fk, 3)[code>>4&3], spreadDivisors(rem[1]/fc, 3)[code>>6&3]
	gy, gx := l2Y[code>>8&3], l2X[code>>10&3]
	m.F[DimK][LvlRF], m.F[DimC][LvlRF] = fk, fc
	m.F[DimK][LvlL2], m.F[DimC][LvlL2], m.F[DimY][LvlL2], m.F[DimX][LvlL2] = gk, gc, gy, gx
	m.F[DimK][LvlDRAM], m.F[DimC][LvlDRAM] = rem[0]/fk/gk, rem[1]/fc/gc
	m.F[DimY][LvlDRAM], m.F[DimX][LvlDRAM] = rem[2]/gy, rem[3]/gx
	return m
}

// CostPricer prices a pruned enumeration through a Cost, the contract the
// black-box mappers price through, with an optional base check and lower
// bound. Its walk state is each fill's factor matrix, so a walk it records
// serves only CostPricers. It keeps scratch state: one CostPricer serves one
// search at a time.
type CostPricer struct {
	// Layer is the walk's layer.
	Layer workload.Layer
	// Cost prices a fill under a list of orderings.
	Cost Cost
	// BaseValid, when set, is consulted once per spatial base with its
	// minimal fill; if it rejects, every fill of that base is skipped.
	// Like a Cost, it must neither mutate nor retain the mapping.
	BaseValid func(*Mapping) bool
	// LB, when set, returns a certified lower bound on the cost of any
	// mapping occupying the given number of spatial PEs (e.g. the
	// compute-time floor MACs/PEs of the perf model).
	LB func(spatialPEs int) float64

	m      Mapping
	cycles [NumTensors * NumTensors]float64
}

// Base implements Pricer.
func (p *CostPricer) Base(b *Base) (float64, bool) {
	if p.BaseValid != nil {
		loadBase(&p.m, Dims(p.Layer), b.Spatial)
		if !p.BaseValid(&p.m) {
			return 0, false
		}
	}
	if p.LB == nil {
		return math.Inf(-1), true
	}
	return p.LB(b.PEs), true
}

// Record implements Pricer: the state of a fill is its factor matrix.
func (p *CostPricer) Record(m *Mapping, st *Mapping) { *st = *m }

// Price implements Pricer.
func (p *CostPricer) Price(st *Mapping, orderings []Mapping) []float64 {
	cycles := p.cycles[:len(orderings)]
	p.Cost(st, orderings, cycles)
	return cycles
}
