package perf

import (
	"math"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// EvalContext is the two-tier evaluation engine for one (design, layer)
// pair. Everything mapping-independent is precomputed at construction —
// smooth-padded dims, the padded MAC count, per-tensor whole-layer sizes,
// tensor-indexing and reduction-dim bitmasks, and the design-derived DMA and
// NoC constants — so the enumeration inner loop pays only for what actually
// varies per candidate.
//
// Tier 1 prices one temporal fill (a factor matrix m.F) under a list of
// stationary-tensor orderings, cycles only, with no per-operand breakdown.
// It comes in two halves. The key-fixed half (keyFill) works out what the
// layer and the fill alone fix: refetch products, RF tiles and DMA bursts,
// the same on every design with the fill's PEs and buffers. The design half
// (side, per spatial base, and price) adds the compute time, the NoC links
// and width, and the bandwidth: the off-chip traffic and DMA time once per
// DRAM-stationary tensor the list names, and each ordering then costs a
// handful of multiplications. EvaluateFill, the mapping.Cost of the
// black-box mappers, runs both halves per call; a pruned search
// (SearchPruned) records the key-fixed half once per fill in a walk shared
// by every design of the key, and runs only the design half per search.
//
// Tier 2 is EvalContext.Evaluate: the full Breakdown, used for the winning
// mapping, bottleneck analysis, and mitigation. Both tiers share the same
// refetch/burst helpers and Tier 1 mirrors Tier 2 expression by expression,
// so their cycles are bit-identical (see the cycle-exactness contract in
// DESIGN.md §13 and TestFastPathMatchesEvaluateProperty).
//
// An EvalContext is immutable after NewContext: any number of goroutines
// may evaluate through one context at once.
type EvalContext struct {
	d arch.Design
	l workload.Layer

	// Layer-derived precomputes (design-independent).
	kind workload.Kind
	dims [mapping.NumDims]int
	macs float64
	// sizeB is the whole-layer padded tensor size in bytes.
	sizeB [mapping.NumTensors]float64
	// idxMask[t] has bit d set when dimension d indexes tensor t.
	idxMask [mapping.NumTensors]uint8
	// redMask has bit d set when dimension d is a reduction (psum) dim.
	redMask uint8

	// Design-derived precomputes.
	bpc     float64
	nocW    float64
	l2Bytes int64
}

// fillState is the key-fixed half of Tier 1's state of one valid temporal
// fill: what the layer and the fill's factor matrix fix, whatever the
// design's bandwidth, NoC width and links. Every field is integer-valued
// (see fillRecord).
type fillState struct {
	// prodIrrDRAM/prodIrrL2 are prodIrrelevant(t, level) for TW and TI
	// (TO refetch goes through the psum products instead).
	prodIrrDRAM [mapping.TO]float64
	prodIrrL2   [mapping.TO]float64
	psumDRAM    float64
	psumL2      float64
	// bpg is each tensor's RF tile in bytes, the NoC broadcast size of
	// one group; burst is each tensor's DMA burst size, clamped to one
	// element.
	bpg   [mapping.NumTensors]float64
	burst [mapping.NumTensors]float64
}

// baseSide is the design half of Tier 1's state that a fill's spatial base
// fixes: the compute time, and each operand's NoC group count and
// time-sharing degree.
type baseSide struct {
	tcomp   float64
	groupsF [arch.NumOperands]float64
	sharesF [arch.NumOperands]float64
}

// dramSide is the part of a candidate's cost that its fill and its
// DRAM-stationary tensor fix: the off-chip bytes per operand, the off-chip
// partial-sum refetch, and the DMA time.
type dramSide struct {
	off  [arch.NumOperands]float64
	psum float64
	tdma float64
}

// NewContext builds the evaluation context of layer l on design d,
// precomputing every mapping-independent factor of the cost tree. It is the
// only entry to the cost model: callers evaluate through the context's two
// tiers. It is small enough to inline, so a caller that does not keep the
// context gets it on its stack.
func NewContext(d arch.Design, l workload.Layer) *EvalContext {
	c := new(EvalContext)
	c.init(d, l)
	return c
}

// init fills c with the mapping-independent precomputes of layer l on
// design d.
func (c *EvalContext) init(d arch.Design, l workload.Layer) {
	*c = EvalContext{
		d:       d,
		l:       l,
		kind:    l.Kind,
		bpc:     d.BytesPerCycle(),
		nocW:    float64(d.NoCWidthBits),
		l2Bytes: int64(d.L2Bytes()),
	}
	c.dims = mapping.Dims(l)
	macs := 1.0
	for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
		macs *= float64(c.dims[dim])
	}
	c.macs = macs
	for t := mapping.Tensor(0); t < mapping.NumTensors; t++ {
		c.sizeB[t] = float64(mapping.PaddedTensorElems(l, c.dims, t)) * workload.BytesPerElem
		for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
			if mapping.Indexes(c.kind, t, dim) {
				c.idxMask[t] |= 1 << uint(dim)
			}
		}
	}
	for _, dim := range mapping.ReductionDims(c.kind) {
		c.redMask |= 1 << uint(dim)
	}
}

// CostLowerBound is a certified lower bound on the cycles either tier can
// report for any valid mapping of the bound layer occupying the given number
// of spatial PEs: Cycles = max(TComp, ...) >= TComp = paddedMACs/PEsUsed.
// The pruned search (SearchPruned) uses it to skip pricing candidates that
// provably cannot beat an incumbent without changing the search result.
func (c *EvalContext) CostLowerBound(spatialPEs int) float64 {
	if spatialPEs < 1 {
		spatialPEs = 1
	}
	return c.macs / float64(spatialPEs)
}

// prodIrr is the product of level-lv factors of the dimensions NOT indexing
// tensor t, in ascending dimension order (the multiplication order fixes the
// float rounding and must not change).
func (c *EvalContext) prodIrr(m *mapping.Mapping, t mapping.Tensor, lv mapping.Level) float64 {
	p := 1.0
	mask := c.idxMask[t]
	for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
		if mask&(1<<uint(dim)) == 0 {
			p *= float64(m.Factor(dim, lv))
		}
	}
	return p
}

// psumProd is the product of level-lv factors of the reduction dimensions,
// in ascending dimension order (the multiplication order fixes the float
// rounding and must not change).
func (c *EvalContext) psumProd(m *mapping.Mapping, lv mapping.Level) float64 {
	p := 1.0
	for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
		if c.redMask&(1<<uint(dim)) != 0 {
			p *= float64(m.Factor(dim, lv))
		}
	}
	return p
}

// refetchDRAM is the off-chip refetch factor of tensor t under mapping m.
func (c *EvalContext) refetchDRAM(m *mapping.Mapping, t mapping.Tensor) float64 {
	if t == mapping.TO {
		if m.DRAMStationary == mapping.TO {
			return 1
		}
		return c.psumProd(m, mapping.LvlDRAM)
	}
	if t == m.DRAMStationary {
		return 1
	}
	return c.prodIrr(m, t, mapping.LvlDRAM)
}

// refetchNoC is the L2-to-PE refetch factor of tensor t under mapping m.
func (c *EvalContext) refetchNoC(m *mapping.Mapping, t mapping.Tensor) float64 {
	if t == mapping.TO {
		if m.NoCStationary == mapping.TO {
			return 1
		}
		return c.psumProd(m, mapping.LvlL2)
	}
	if t == m.NoCStationary {
		return 1
	}
	return c.prodIrr(m, t, mapping.LvlL2)
}

// burstBytes is the contiguous DMA burst size of tensor t under mapping m,
// before the one-element clamp.
func (c *EvalContext) burstBytes(m *mapping.Mapping, t mapping.Tensor) float64 {
	switch t {
	case mapping.TW:
		return float64(m.TileThrough(mapping.DimC, mapping.LvlL2)) *
			float64(m.TileThrough(mapping.DimS, mapping.LvlL2)) * workload.BytesPerElem
	case mapping.TI:
		x := (float64(m.TileThrough(mapping.DimX, mapping.LvlL2))-1)*float64(c.l.Stride) +
			float64(m.TileThrough(mapping.DimS, mapping.LvlL2))
		return x * workload.BytesPerElem
	default:
		return float64(m.TileThrough(mapping.DimX, mapping.LvlL2)) * workload.BytesPerElem
	}
}

// fits runs the validity checks of mapping m that do not read the design's
// links: the factors cover the padded dims, the spatial tiling fits the
// PEs, and the RF and L2 tiles fit their buffers. None of them reads the
// stationary tensors, so validity is a property of the temporal fill. It
// also returns what the checks computed: the PEs the fill occupies and
// each tensor's NoC group count, the links' input (see side).
func (c *EvalContext) fits(m *mapping.Mapping) (pes int, groups [mapping.NumTensors]int, ok bool) {
	for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
		prod := 1
		for lv := mapping.Level(0); lv < mapping.NumLevels; lv++ {
			prod *= m.Factor(dim, lv)
		}
		if prod != c.dims[dim] {
			return
		}
	}
	pes = m.SpatialPEs()
	if pes > c.d.PEs {
		return
	}
	if mapping.RFTileBytes(&c.l, m) > int64(c.d.L1Bytes) {
		return
	}
	if mapping.L2TileBytes(&c.l, m) > c.l2Bytes {
		return
	}
	for t := range groups {
		g := 1
		for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
			if c.idxMask[t]&(1<<uint(dim)) != 0 {
				g *= m.Factor(dim, mapping.LvlSpatial)
			}
		}
		groups[t] = g
	}
	return pes, groups, true
}

// side is the design half of a fill's validity and its base's state: the
// compute time of a fill occupying pes PEs, and each operand's group count
// and time-sharing degree from the tensors' group counts. ok is false when
// an operand needs more time-shared unicast than its NoC supports.
func (c *EvalContext) side(pes int, groups [mapping.NumTensors]int) (bs baseSide, ok bool) {
	for _, op := range arch.Operands {
		g := groups[OperandTensor(op)]
		sh := (g + c.d.PhysLinks[op] - 1) / c.d.PhysLinks[op]
		if sh < 1 {
			sh = 1
		}
		if sh > c.d.VirtLinks[op] {
			return bs, false
		}
		bs.groupsF[op], bs.sharesF[op] = float64(g), float64(sh)
	}
	bs.tcomp = c.macs / float64(pes)
	return bs, true
}

// Valid reports whether mapping m is valid on the bound design, under any
// stationary ordering. It runs only the validity checks, none of Tier 1's
// cost precomputes, and allocates nothing.
func (c *EvalContext) Valid(m *mapping.Mapping) bool {
	pes, groups, ok := c.fits(m)
	if ok {
		_, ok = c.side(pes, groups)
	}
	return ok
}

// keyFill sets fs to the key-fixed state of m's temporal fill, which must
// be valid.
func (c *EvalContext) keyFill(m *mapping.Mapping, fs *fillState) {
	for t := mapping.Tensor(0); t < mapping.TO; t++ {
		fs.prodIrrDRAM[t] = c.prodIrr(m, t, mapping.LvlDRAM)
		fs.prodIrrL2[t] = c.prodIrr(m, t, mapping.LvlL2)
	}
	fs.psumDRAM = c.psumProd(m, mapping.LvlDRAM)
	fs.psumL2 = c.psumProd(m, mapping.LvlL2)
	for t := mapping.Tensor(0); t < mapping.NumTensors; t++ {
		fs.bpg[t] = float64(mapping.RFTileElems(&c.l, m, t)) * workload.BytesPerElem
		burst := c.burstBytes(m, t)
		if burst < workload.BytesPerElem {
			burst = workload.BytesPerElem
		}
		fs.burst[t] = burst
	}
}

// dram works out the off-chip side of a valid fill with DRAM-stationary
// tensor ds, mirroring Tier 2's expressions and their association exactly:
// off = size*refDRAM, and the DMA time summed in operand order.
func (c *EvalContext) dram(fs *fillState, ds mapping.Tensor) dramSide {
	refW, refI, psum := fs.prodIrrDRAM[mapping.TW], fs.prodIrrDRAM[mapping.TI], fs.psumDRAM
	switch ds {
	case mapping.TW:
		refW = 1
	case mapping.TI:
		refI = 1
	default:
		psum = 1
	}
	s := dramSide{psum: psum}
	s.off[arch.OpW] = c.sizeB[mapping.TW] * refW
	s.off[arch.OpI] = c.sizeB[mapping.TI] * refI
	s.off[arch.OpOWr] = c.sizeB[mapping.TO] * psum
	s.off[arch.OpORd] = c.sizeB[mapping.TO] * (psum - 1)
	for _, op := range arch.Operands {
		bytes := s.off[op]
		if bytes <= 0 {
			continue
		}
		s.tdma += bytes/c.bpc + bytes/fs.burst[OperandTensor(op)]*dmaBurstSetupCycles
	}
	return s
}

// EvaluateFill is Tier 1, the mapping.Cost of the black-box mappers: it
// sets cycles[i] to the latency of m's temporal fill under the stationary
// pair of orderings[i], bit-identical to Evaluate's Cycles for that
// candidate, or to +Inf when the candidate is invalid. It reads only the
// stationary fields of the orderings and ignores m's own. It is the
// key-fixed half (keyFill) followed by the design half (price), the same
// two halves a pruned search prices a walk's recorded fills with, and
// allocates nothing.
func (c *EvalContext) EvaluateFill(m *mapping.Mapping, orderings []mapping.Mapping, cycles []float64) {
	pes, groups, ok := c.fits(m)
	var bs baseSide
	if ok {
		bs, ok = c.side(pes, groups)
	}
	if !ok {
		for i := range orderings {
			cycles[i] = math.Inf(1)
		}
		return
	}
	var fs fillState
	c.keyFill(m, &fs)
	c.price(&bs, &fs, orderings, cycles)
}

// price is the design half of Tier 1: it sets cycles[i] to the latency of
// the valid fill with key-fixed state fs, on a base with design state bs,
// under the stationary pair of orderings[i]. It works out the off-chip
// side once per DRAM-stationary tensor the list names, and each ordering
// then costs a handful of multiplications. Every expression keeps Tier 2's
// association.
func (c *EvalContext) price(bs *baseSide, fs *fillState, orderings []mapping.Mapping, cycles []float64) {
	var groupsBpg, perGroup [arch.NumOperands]float64
	for _, op := range arch.Operands {
		bpg := fs.bpg[OperandTensor(op)]
		groupsBpg[op] = bs.groupsF[op] * bpg
		perGroup[op] = math.Ceil(bpg * 8 / c.nocW)
	}
	var sides [mapping.NumTensors]dramSide
	var have [mapping.NumTensors]bool
	for i := range orderings {
		// Anything but W or I keeps O stationary, as in dram's switch.
		ds := orderings[i].DRAMStationary
		if ds != mapping.TW && ds != mapping.TI {
			ds = mapping.TO
		}
		if !have[ds] {
			sides[ds], have[ds] = c.dram(fs, ds), true
		}
		side := &sides[ds]

		// The NoC-stationary tensor only picks between a precomputed
		// product and 1. NoC traffic mirrors Tier 2's association:
		// noc = (size*refDRAM)*refNoC.
		refNoCW, refNoCI, refNoCO := fs.prodIrrL2[mapping.TW], fs.prodIrrL2[mapping.TI], fs.psumL2
		switch orderings[i].NoCStationary {
		case mapping.TW:
			refNoCW = 1
		case mapping.TI:
			refNoCI = 1
		default:
			refNoCO = 1
		}
		var noc [arch.NumOperands]float64
		psumNoC := side.psum * refNoCO
		noc[arch.OpW] = side.off[arch.OpW] * refNoCW
		noc[arch.OpI] = side.off[arch.OpI] * refNoCI
		noc[arch.OpOWr] = c.sizeB[mapping.TO] * psumNoC
		noc[arch.OpORd] = c.sizeB[mapping.TO] * (psumNoC - 1)

		cyc := bs.tcomp
		for _, op := range arch.Operands {
			if noc[op] <= 0 {
				continue
			}
			loads := noc[op] / groupsBpg[op]
			t := loads * bs.sharesF[op] * perGroup[op]
			if t > cyc {
				cyc = t
			}
		}
		if side.tdma > cyc {
			cyc = side.tdma
		}
		cycles[i] = cyc
	}
}

// Evaluate is the Tier-2 full evaluation: the complete Breakdown of mapping
// m on the bound (design, layer) pair. It shares the refetch/burst helpers
// with Tier 1.
func (c *EvalContext) Evaluate(m mapping.Mapping) Breakdown {
	var b Breakdown
	d := c.d

	// Structural validity: factors must cover padded dims exactly.
	for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
		prod := 1
		for lv := mapping.Level(0); lv < mapping.NumLevels; lv++ {
			prod *= m.Factor(dim, lv)
		}
		if prod != c.dims[dim] {
			b.Incompat = "tiling does not cover loop extent"
			b.IncompatCount = 1
			return b
		}
	}
	b.PEsUsed = m.SpatialPEs()
	if b.PEsUsed > d.PEs {
		b.Incompat = "spatial tiling exceeds PE count"
		b.IncompatCount = 1
		return b
	}
	if rf := mapping.RFTileBytes(&c.l, &m); rf > int64(d.L1Bytes) {
		b.Incompat = "RF tile exceeds L1 capacity"
		b.IncompatCount = 1
		return b
	}
	if l2 := mapping.L2TileBytes(&c.l, &m); l2 > c.l2Bytes {
		b.Incompat = "L2 tile exceeds scratchpad capacity"
		b.IncompatCount = 1
		return b
	}

	// Computation time: padded MACs over occupied PEs.
	b.MACs = c.macs
	b.TComp = c.macs / float64(b.PEsUsed)

	// Off-chip traffic (bytes) per operand.
	psumDRAM := c.refetchDRAM(&m, mapping.TO)
	b.DataOffchip[arch.OpW] = c.sizeB[mapping.TW] * c.refetchDRAM(&m, mapping.TW)
	b.DataOffchip[arch.OpI] = c.sizeB[mapping.TI] * c.refetchDRAM(&m, mapping.TI)
	b.DataOffchip[arch.OpOWr] = c.sizeB[mapping.TO] * psumDRAM
	b.DataOffchip[arch.OpORd] = c.sizeB[mapping.TO] * (psumDRAM - 1)

	// NoC traffic (bytes) per operand.
	psumNoC := psumDRAM * c.refetchNoC(&m, mapping.TO)
	b.DataNoC[arch.OpW] = c.sizeB[mapping.TW] * c.refetchDRAM(&m, mapping.TW) * c.refetchNoC(&m, mapping.TW)
	b.DataNoC[arch.OpI] = c.sizeB[mapping.TI] * c.refetchDRAM(&m, mapping.TI) * c.refetchNoC(&m, mapping.TI)
	b.DataNoC[arch.OpOWr] = c.sizeB[mapping.TO] * psumNoC
	b.DataNoC[arch.OpORd] = c.sizeB[mapping.TO] * (psumNoC - 1)

	// NoC geometry and per-operand communication time.
	for _, op := range arch.Operands {
		t := OperandTensor(op)
		groups := 1
		mask := c.idxMask[t]
		for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
			if mask&(1<<uint(dim)) != 0 {
				groups *= m.Factor(dim, mapping.LvlSpatial)
			}
		}
		b.NoCGroups[op] = groups
		bpg := float64(mapping.RFTileElems(&c.l, &m, t)) * workload.BytesPerElem
		b.NoCBytesPerGroup[op] = bpg

		shares := (groups + d.PhysLinks[op] - 1) / d.PhysLinks[op]
		if shares < 1 {
			shares = 1
		}
		b.VirtNeeded[op] = shares
		if shares > d.VirtLinks[op] {
			// Record every short NoC rather than bailing at the
			// first, so mitigation can target all of them and
			// partial fixes count as constraint-budget progress.
			if b.Incompat != "" {
				b.Incompat += "; "
			}
			b.Incompat += "spatial parallelism needs more time-shared unicast than " + op.String() + " NoC supports"
			b.IncompatCount++
		}

		if b.DataNoC[op] <= 0 {
			continue
		}
		loads := b.DataNoC[op] / (float64(groups) * bpg)
		perGroupCycles := math.Ceil(bpg * 8 / c.nocW)
		b.TNoC[op] = loads * float64(shares) * perGroupCycles
	}

	// DMA time: additive over operands, with per-burst setup overhead for
	// non-contiguous accesses.
	for _, op := range arch.Operands {
		bytes := b.DataOffchip[op]
		if bytes <= 0 {
			continue
		}
		burst := c.burstBytes(&m, OperandTensor(op))
		if burst < workload.BytesPerElem {
			burst = workload.BytesPerElem
		}
		b.TDMAOp[op] = bytes/c.bpc + bytes/burst*dmaBurstSetupCycles
		b.TDMA += b.TDMAOp[op]
	}

	// Buffer allocations and remaining reuse.
	for t := mapping.Tensor(0); t < mapping.NumTensors; t++ {
		b.DataRF[t] = float64(mapping.RFTileElems(&c.l, &m, t)) * workload.BytesPerElem
		b.DataSPM[t] = float64(mapping.L2TileElems(&c.l, &m, t)) * workload.BytesPerElem
		b.ReuseAvailRF[t] = c.refetchNoC(&m, t)
		b.ReuseAvailSPM[t] = c.refetchDRAM(&m, t)
	}

	b.Cycles = b.TComp
	for _, op := range arch.Operands {
		if b.TNoC[op] > b.Cycles {
			b.Cycles = b.TNoC[op]
		}
	}
	if b.TDMA > b.Cycles {
		b.Cycles = b.TDMA
	}
	b.Valid = b.IncompatCount == 0
	return b
}
