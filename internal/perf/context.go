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
// Tier 1 is EvaluateCycles: a slim (cycles, valid) evaluation for the
// mapping-search hot loop that skips the per-operand breakdown arrays
// mapping.Cost never reads. It additionally memoizes the most recent
// temporal fill (the factor matrix m.F): the pruned enumerator tries all
// nine stationary-tensor orderings of each fill back-to-back, and every
// fill-dependent quantity — structural validity, buffer fits, refetch
// products, NoC geometry, DMA bursts — is stationary-independent, so eight
// of nine calls reduce to a handful of multiplications.
//
// Tier 2 is EvalContext.Evaluate: the full Breakdown, used for the winning
// mapping, bottleneck analysis, and mitigation. Both tiers share the same
// refetch/burst helpers and Tier 1 mirrors Tier 2 expression by expression,
// so their cycles are bit-identical (see the cycle-exactness contract in
// DESIGN.md §13 and TestFastPathMatchesEvaluateProperty).
//
// An EvalContext is NOT safe for concurrent use: the fill memo is mutable
// state. Build one context per goroutine (internal/eval builds one per
// layer search).
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

	// Fill memo: the mapping-factor-dependent, stationary-independent state
	// of the most recently evaluated temporal fill.
	fillOK bool
	fill   fillState
}

// fillState caches every quantity of one temporal fill (a factor matrix
// m.F) that does not depend on the stationary-tensor ordering.
type fillState struct {
	f  [mapping.NumDims][mapping.NumLevels]int
	ok bool // fill is structurally valid, fits buffers/PEs/NoC sharing

	pes   int
	tcomp float64

	// prodIrrDRAM/prodIrrL2 are prodIrrelevant(t, level) for TW and TI
	// (TO refetch goes through the psum products instead).
	prodIrrDRAM [mapping.NumTensors]float64
	prodIrrL2   [mapping.NumTensors]float64
	psumDRAM    float64
	psumL2      float64

	// Per-operand NoC geometry: groups*bytesPerGroup (the loads divisor),
	// the time-sharing degree as a float, the per-group broadcast cycles,
	// and the clamped DMA burst size.
	groupsBpg [arch.NumOperands]float64
	sharesF   [arch.NumOperands]float64
	perGroup  [arch.NumOperands]float64
	burst     [arch.NumOperands]float64
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
// The pruned enumerator (mapping.GenConfig.CostLB) uses it to skip cost
// calls that provably cannot beat an incumbent without changing the search
// result.
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

// computeFill populates the fill memo for mapping m's factor matrix. After
// it returns, c.fill.ok reports whether any ordering of this fill can be
// valid (validity is stationary-independent: structural coverage, PE and
// buffer fits, and NoC time-sharing demand all ignore the stationary
// tensors).
func (c *EvalContext) computeFill(m *mapping.Mapping) {
	fs := &c.fill
	fs.f = m.F
	fs.ok = false
	c.fillOK = true

	// Structural validity: factors must cover padded dims exactly.
	for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
		prod := 1
		for lv := mapping.Level(0); lv < mapping.NumLevels; lv++ {
			prod *= m.Factor(dim, lv)
		}
		if prod != c.dims[dim] {
			return
		}
	}
	pes := m.SpatialPEs()
	if pes > c.d.PEs {
		return
	}
	if mapping.RFTileBytes(c.l, m) > int64(c.d.L1Bytes) {
		return
	}
	if mapping.L2TileBytes(c.l, m) > c.l2Bytes {
		return
	}
	fs.pes = pes
	fs.tcomp = c.macs / float64(pes)

	for t := mapping.Tensor(0); t < mapping.TO; t++ {
		fs.prodIrrDRAM[t] = c.prodIrr(m, t, mapping.LvlDRAM)
		fs.prodIrrL2[t] = c.prodIrr(m, t, mapping.LvlL2)
	}
	fs.psumDRAM = c.psumProd(m, mapping.LvlDRAM)
	fs.psumL2 = c.psumProd(m, mapping.LvlL2)

	for _, op := range arch.Operands {
		t := OperandTensor(op)
		groups := 1
		mask := c.idxMask[t]
		for dim := mapping.Dim(0); dim < mapping.NumDims; dim++ {
			if mask&(1<<uint(dim)) != 0 {
				groups *= m.Factor(dim, mapping.LvlSpatial)
			}
		}
		shares := (groups + c.d.PhysLinks[op] - 1) / c.d.PhysLinks[op]
		if shares < 1 {
			shares = 1
		}
		if shares > c.d.VirtLinks[op] {
			return
		}
		bpg := float64(mapping.RFTileElems(c.l, m, t)) * workload.BytesPerElem
		fs.groupsBpg[op] = float64(groups) * bpg
		fs.sharesF[op] = float64(shares)
		fs.perGroup[op] = math.Ceil(bpg * 8 / c.nocW)
		burst := c.burstBytes(m, t)
		if burst < workload.BytesPerElem {
			burst = workload.BytesPerElem
		}
		fs.burst[op] = burst
	}
	fs.ok = true
}

// EvaluateCycles is the Tier-1 fast path: the layer latency of mapping m in
// cycles and whether the mapping is valid on the bound design. For a valid
// mapping the cycles are bit-identical to Evaluate(m).Cycles; for an invalid
// one it reports (0, false) without computing a latency (every search-loop
// caller gates on ok before reading the cycles). It allocates nothing, and
// its method value is the mapping.Cost callback of every mapping search.
func (c *EvalContext) EvaluateCycles(m *mapping.Mapping) (float64, bool) {
	if !c.fillOK || c.fill.f != m.F {
		c.computeFill(m)
	}
	fs := &c.fill
	if !fs.ok {
		return 0, false
	}

	// Ordering-dependent refetch selection: the stationary tensors only
	// pick between a precomputed product and 1.
	refDRAMW, refDRAMI, psumDRAM := fs.prodIrrDRAM[mapping.TW], fs.prodIrrDRAM[mapping.TI], fs.psumDRAM
	switch m.DRAMStationary {
	case mapping.TW:
		refDRAMW = 1
	case mapping.TI:
		refDRAMI = 1
	default:
		psumDRAM = 1
	}
	refNoCW, refNoCI, refNoCO := fs.prodIrrL2[mapping.TW], fs.prodIrrL2[mapping.TI], fs.psumL2
	switch m.NoCStationary {
	case mapping.TW:
		refNoCW = 1
	case mapping.TI:
		refNoCI = 1
	default:
		refNoCO = 1
	}

	// Traffic, mirroring Tier 2's expressions (and their association)
	// exactly: off = size*refDRAM, noc = (size*refDRAM)*refNoC.
	var off, noc [arch.NumOperands]float64
	psumNoC := psumDRAM * refNoCO
	off[arch.OpW] = c.sizeB[mapping.TW] * refDRAMW
	off[arch.OpI] = c.sizeB[mapping.TI] * refDRAMI
	off[arch.OpOWr] = c.sizeB[mapping.TO] * psumDRAM
	off[arch.OpORd] = c.sizeB[mapping.TO] * (psumDRAM - 1)
	noc[arch.OpW] = off[arch.OpW] * refNoCW
	noc[arch.OpI] = off[arch.OpI] * refNoCI
	noc[arch.OpOWr] = c.sizeB[mapping.TO] * psumNoC
	noc[arch.OpORd] = c.sizeB[mapping.TO] * (psumNoC - 1)

	cycles := fs.tcomp
	for _, op := range arch.Operands {
		if noc[op] <= 0 {
			continue
		}
		loads := noc[op] / fs.groupsBpg[op]
		t := loads * fs.sharesF[op] * fs.perGroup[op]
		if t > cycles {
			cycles = t
		}
	}
	tdma := 0.0
	for _, op := range arch.Operands {
		bytes := off[op]
		if bytes <= 0 {
			continue
		}
		tdma += bytes/c.bpc + bytes/fs.burst[op]*dmaBurstSetupCycles
	}
	if tdma > cycles {
		cycles = tdma
	}
	return cycles, true
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
	if rf := mapping.RFTileBytes(c.l, &m); rf > int64(d.L1Bytes) {
		b.Incompat = "RF tile exceeds L1 capacity"
		b.IncompatCount = 1
		return b
	}
	if l2 := mapping.L2TileBytes(c.l, &m); l2 > c.l2Bytes {
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
		bpg := float64(mapping.RFTileElems(c.l, &m, t)) * workload.BytesPerElem
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
		b.DataRF[t] = float64(mapping.RFTileElems(c.l, &m, t)) * workload.BytesPerElem
		b.DataSPM[t] = float64(mapping.L2TileElems(c.l, &m, t)) * workload.BytesPerElem
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

// Valid adapts the Tier-1 fast path into a validity-only predicate (the
// pruned enumerator's per-spatial-base probe). Like EvaluateCycles, the
// closure shares the fill memo and is not safe for concurrent use.
func (c *EvalContext) Valid() func(mapping.Mapping) bool {
	return func(m mapping.Mapping) bool {
		_, ok := c.EvaluateCycles(&m)
		return ok
	}
}
