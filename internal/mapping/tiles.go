package mapping

import "xdse/internal/workload"

// haloElems returns the input-tile element count for the given output-tile
// extents (y, x), filter extents (r, s), channel count ch, and stride.
func haloElems(ch, y, x, r, s, stride int) int64 {
	iy := (y-1)*stride + r
	ix := (x-1)*stride + s
	return int64(ch) * int64(iy) * int64(ix)
}

// RFTileElems returns the per-PE register-file tile element count of tensor
// t: the data one PE holds while iterating its RF-level loops.
func RFTileElems(l *workload.Layer, m *Mapping, t Tensor) int64 {
	k := m.Factor(DimK, LvlRF)
	c := m.Factor(DimC, LvlRF)
	y := m.Factor(DimY, LvlRF)
	x := m.Factor(DimX, LvlRF)
	r := m.Factor(DimR, LvlRF)
	s := m.Factor(DimS, LvlRF)
	switch t {
	case TW:
		if l.Kind == workload.DWConv {
			return int64(k) * int64(r) * int64(s)
		}
		return int64(k) * int64(c) * int64(r) * int64(s)
	case TI:
		ch := c
		if l.Kind == workload.DWConv {
			ch = k
		}
		return haloElems(ch, y, x, r, s, l.Stride)
	default:
		return int64(k) * int64(y) * int64(x)
	}
}

// L2TileElems returns the shared scratchpad tile element count of tensor t:
// the data resident in L2 for one DRAM-level tile (all PEs combined).
func L2TileElems(l *workload.Layer, m *Mapping, t Tensor) int64 {
	th := func(d Dim) int { return m.TileThrough(d, LvlL2) }
	k, c, y, x, r, s := th(DimK), th(DimC), th(DimY), th(DimX), th(DimR), th(DimS)
	switch t {
	case TW:
		if l.Kind == workload.DWConv {
			return int64(k) * int64(r) * int64(s)
		}
		return int64(k) * int64(c) * int64(r) * int64(s)
	case TI:
		ch := c
		if l.Kind == workload.DWConv {
			ch = k
		}
		return haloElems(ch, y, x, r, s, l.Stride)
	default:
		return int64(k) * int64(y) * int64(x)
	}
}

// RFTileBytes returns the per-PE RF footprint of all tensors combined.
// It is the W+I+O sum of RFTileElems with the six RF factors read once
// instead of once per tensor — this runs per candidate inside the mapping
// generators' buffer-fit filters.
func RFTileBytes(l *workload.Layer, m *Mapping) int64 {
	k := m.Factor(DimK, LvlRF)
	c := m.Factor(DimC, LvlRF)
	y := m.Factor(DimY, LvlRF)
	x := m.Factor(DimX, LvlRF)
	r := m.Factor(DimR, LvlRF)
	s := m.Factor(DimS, LvlRF)
	return tileBytesSum(l.Kind, l.Stride, k, c, y, x, r, s)
}

// L2TileBytes returns the shared scratchpad footprint of all tensors. Like
// RFTileBytes it reads the six tile-through-L2 extents once rather than per
// tensor.
func L2TileBytes(l *workload.Layer, m *Mapping) int64 {
	k := m.TileThrough(DimK, LvlL2)
	c := m.TileThrough(DimC, LvlL2)
	y := m.TileThrough(DimY, LvlL2)
	x := m.TileThrough(DimX, LvlL2)
	r := m.TileThrough(DimR, LvlL2)
	s := m.TileThrough(DimS, LvlL2)
	return tileBytesSum(l.Kind, l.Stride, k, c, y, x, r, s)
}

// tileBytesSum is the shared W+I+O byte total for tile extents (k..s) at one
// level, in the same W, I, O addition order as summing the per-tensor elems
// (integer math, so factoring BytesPerElem out of the sum is exact).
func tileBytesSum(kind workload.Kind, stride, k, c, y, x, r, s int) int64 {
	var w int64
	ch := c
	if kind == workload.DWConv {
		w = int64(k) * int64(r) * int64(s)
		ch = k
	} else {
		w = int64(k) * int64(c) * int64(r) * int64(s)
	}
	return (w + haloElems(ch, y, x, r, s, stride) + int64(k)*int64(y)*int64(x)) * workload.BytesPerElem
}

// PaddedTensorElems returns the whole-layer element count of tensor t over
// the smooth-padded dimensions (the sizes the traffic model tiles).
func PaddedTensorElems(l workload.Layer, dims [NumDims]int, t Tensor) int64 {
	k, c, y, x, r, s := dims[DimK], dims[DimC], dims[DimY], dims[DimX], dims[DimR], dims[DimS]
	switch t {
	case TW:
		if l.Kind == workload.DWConv {
			return int64(k) * int64(r) * int64(s)
		}
		return int64(k) * int64(c) * int64(r) * int64(s)
	case TI:
		ch := c
		if l.Kind == workload.DWConv {
			ch = k
		}
		return haloElems(ch, y, x, r, s, l.Stride)
	default:
		return int64(k) * int64(y) * int64(x)
	}
}
