package perf

import (
	"sync"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// Walk is the memo of one pruned-search key, a layer shape under a PE
// budget and RF and scratchpad capacities, with Tier 1's key-fixed state of
// every fill it records. Every design with those PEs and capacities
// searches through it, whatever its bandwidth, NoC width and links.
type Walk = mapping.Walk[fillRecord]

// NewWalk starts the walk of layer l's pruned mapping space on designs with
// d's PEs and buffer capacities.
func NewWalk(l workload.Layer, d arch.Design) *Walk {
	return mapping.NewWalk[fillRecord](l, d.PEs, d.L1Bytes, d.L2Bytes())
}

// fillRecord is a fillState as a walk stores it, in 48 bytes. Every field
// of the key-fixed state is an integer no larger than the bytes of one
// whole padded tensor of the layer: W's refetch product multiplies factors
// of output dimensions, I's of weight dimensions, and a psum product of
// the weights' reduction dimensions, each factor at most its dimension; an
// RF tile is part of its tensor; and a burst is part of one row of its
// tensor. On a narrow layer, whose tensors are all under 4 GiB, the uint32
// fields therefore hold every value exactly, and unpack restores the
// fillState bit for bit (the float products are exact too, being below
// 2^53).
type fillRecord struct {
	prodIrrDRAM, prodIrrL2 [mapping.TO]uint32
	psumDRAM, psumL2       uint32
	bpg, burst             [mapping.NumTensors]uint32
}

// narrow reports whether every whole padded tensor of the layer is under
// 4 GiB, so that a fillRecord holds its fills' state exactly.
func (c *EvalContext) narrow() bool {
	for _, b := range c.sizeB {
		if b >= 1<<32 {
			return false
		}
	}
	return true
}

func pack(fs *fillState) fillRecord {
	var r fillRecord
	for t := range r.prodIrrDRAM {
		r.prodIrrDRAM[t], r.prodIrrL2[t] = uint32(fs.prodIrrDRAM[t]), uint32(fs.prodIrrL2[t])
	}
	r.psumDRAM, r.psumL2 = uint32(fs.psumDRAM), uint32(fs.psumL2)
	for t := range r.bpg {
		r.bpg[t], r.burst[t] = uint32(fs.bpg[t]), uint32(fs.burst[t])
	}
	return r
}

func (r *fillRecord) unpack() fillState {
	var fs fillState
	for t := range r.prodIrrDRAM {
		fs.prodIrrDRAM[t], fs.prodIrrL2[t] = float64(r.prodIrrDRAM[t]), float64(r.prodIrrL2[t])
	}
	fs.psumDRAM, fs.psumL2 = float64(r.psumDRAM), float64(r.psumL2)
	for t := range r.bpg {
		fs.bpg[t], fs.burst[t] = float64(r.bpg[t]), float64(r.burst[t])
	}
	return fs
}

// pricer is Tier 1 as the mapping.Pricer of one pruned search: a context
// on the searched design, and the design state of the base it last
// accepted.
type pricer struct {
	c      EvalContext
	bs     baseSide
	cycles [mapping.NumTensors * mapping.NumTensors]float64
}

// Base implements mapping.Pricer: the validity checks of the base's minimal
// fill, whose footprints the walk recorded, then the design's links. The
// walk's capacities are the design's and it prunes every fill that
// overflows them, so each fill of an accepted base is valid: Price never
// needs to reject one.
func (p *pricer) Base(b *mapping.Base) (float64, bool) {
	c := &p.c
	if b.PEs > c.d.PEs || b.RFBytes > int64(c.d.L1Bytes) || b.L2Bytes > c.l2Bytes {
		return 0, false
	}
	bs, ok := c.side(b.PEs, b.Groups)
	if !ok {
		return 0, false
	}
	p.bs = bs
	return c.CostLowerBound(b.PEs), true
}

// Record implements mapping.Pricer with the key-fixed half of Tier 1.
func (p *pricer) Record(m *mapping.Mapping, st *fillRecord) {
	var fs fillState
	p.c.keyFill(m, &fs)
	*st = pack(&fs)
}

// Price implements mapping.Pricer with the design half of Tier 1.
func (p *pricer) Price(st *fillRecord, orderings []mapping.Mapping) []float64 {
	fs := st.unpack()
	cycles := p.cycles[:len(orderings)]
	p.c.price(&p.bs, &fs, orderings, cycles)
	return cycles
}

// pricers keeps searches from allocating their pricer, which escapes
// through the mapping.Pricer interface.
var pricers = sync.Pool{New: func() any { return new(pricer) }}

// SearchPruned runs the pruned mapping search of layer l on design d: the
// enumeration priced by Tier 1 under the compute-floor lower bound
// (CostLowerBound). It replays walk w and extends it where the search goes
// further; w must come from NewWalk for l's shape and a design with d's PEs
// and buffer capacities, and nil walks a fresh one. The result, the work
// counters included, is the same whatever earlier searches recorded in w.
func SearchPruned(w *Walk, d arch.Design, l workload.Layer, cfg mapping.GenConfig) mapping.Result {
	p := pricers.Get().(*pricer)
	defer pricers.Put(p)
	p.c.init(d, l)
	if !p.c.narrow() {
		// A record might not hold this layer's fill state: price every
		// fill from its factor matrix on a walk of its own.
		c := &p.c
		return mapping.EnumeratePruned(mapping.NewWalk[mapping.Mapping](l, d.PEs, d.L1Bytes, d.L2Bytes()), cfg,
			&mapping.CostPricer{Layer: l, Cost: c.EvaluateFill, BaseValid: c.Valid, LB: c.CostLowerBound})
	}
	if w == nil {
		w = NewWalk(l, d)
	}
	return mapping.EnumeratePruned(w, cfg, p)
}
