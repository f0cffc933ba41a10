// Package workload models DNN inference workloads as lists of
// execution-critical operators (CONV, depthwise CONV, GEMM) with tensor
// shapes and occurrence multiplicities, mirroring the 11-model benchmark
// suite of the Explainable-DSE paper (§5).
//
// Only unique tensor shapes are stored; Mult records how many times the
// shape occurs in the network so whole-network costs are weighted sums over
// unique layers, exactly as the paper's DSE analyzes per-layer bottlenecks
// of layers "with unique tensor shapes".
package workload

import (
	"fmt"
	"strconv"
)

// Kind is the operator class of a layer.
type Kind int

const (
	// Conv is a standard convolution.
	Conv Kind = iota
	// DWConv is a depthwise (per-channel) convolution.
	DWConv
	// Gemm is a dense matrix multiply; GEMM(M,N,K) is stored as
	// K=M (output rows), C=K (reduction), X=N (columns), Y=R=S=1.
	Gemm
)

// String names the operator kind.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "CONV"
	case DWConv:
		return "DWCONV"
	case Gemm:
		return "GEMM"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// BytesPerElem is the fixed data precision of the study (int16).
const BytesPerElem = 2

// Layer is one unique execution-critical operator of a DNN.
type Layer struct {
	Name   string
	Kind   Kind
	K      int // output channels (CONV) / output rows M (GEMM)
	C      int // input channels (CONV) / reduction depth (GEMM)
	Y, X   int // output spatial extents (GEMM: Y=1, X=columns N)
	R, S   int // filter spatial extents (GEMM: 1)
	Stride int // spatial stride (>=1)
	Mult   int // number of occurrences of this exact shape in the DNN
}

// normalized returns the layer with zero-valued dims promoted to 1 so the
// arithmetic below never divides by or multiplies with zero.
func (l Layer) normalized() Layer {
	one := func(v int) int {
		if v < 1 {
			return 1
		}
		return v
	}
	l.K, l.C = one(l.K), one(l.C)
	l.Y, l.X = one(l.Y), one(l.X)
	l.R, l.S = one(l.R), one(l.S)
	l.Stride = one(l.Stride)
	l.Mult = one(l.Mult)
	return l
}

// MACs returns the multiply-accumulate count of one occurrence.
func (l Layer) MACs() int64 {
	n := l.normalized()
	m := int64(n.K) * int64(n.Y) * int64(n.X) * int64(n.R) * int64(n.S)
	if n.Kind != DWConv {
		m *= int64(n.C)
	}
	return m
}

// InY returns the input spatial height implied by output height and filter.
func (l Layer) InY() int {
	n := l.normalized()
	return (n.Y-1)*n.Stride + n.R
}

// InX returns the input spatial width.
func (l Layer) InX() int {
	n := l.normalized()
	return (n.X-1)*n.Stride + n.S
}

// WeightElems returns the element count of the weight tensor.
func (l Layer) WeightElems() int64 {
	n := l.normalized()
	w := int64(n.K) * int64(n.R) * int64(n.S)
	if n.Kind == Conv || n.Kind == Gemm {
		w *= int64(n.C)
	}
	return w
}

// InputElems returns the element count of the input tensor.
func (l Layer) InputElems() int64 {
	n := l.normalized()
	ch := int64(n.C)
	if n.Kind == DWConv {
		ch = int64(n.K)
	}
	return ch * int64(l.InY()) * int64(l.InX())
}

// OutputElems returns the element count of the output tensor.
func (l Layer) OutputElems() int64 {
	n := l.normalized()
	return int64(n.K) * int64(n.Y) * int64(n.X)
}

// ShapeKey returns a canonical key of everything the mapping search reads
// from the layer: the operator kind, the normalized loop extents, and the
// stride. Name and Mult are deliberately excluded — Mult only scales
// whole-network totals after the per-occurrence search has run, so two
// layers with equal shape keys have identical mapping-search results on any
// given design.
func (l Layer) ShapeKey() string {
	n := l.normalized()
	// Built with strconv appends rather than fmt (fmt showed up in
	// warm-campaign profiles when this ran once per layer per design; the
	// evaluator now builds it once per distinct layer, at eval.New).
	// The byte layout is identical to the original
	// "%d|%d,%d,%d,%d,%d,%d|%d" format — persisted cache records key on
	// this string, so the layout must not change without retiring them.
	b := make([]byte, 0, 48)
	b = strconv.AppendInt(b, int64(n.Kind), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(n.K), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(n.C), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(n.Y), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(n.X), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(n.R), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(n.S), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(n.Stride), 10)
	return string(b)
}

// String renders the shape in a compact loop-nest notation.
func (l Layer) String() string {
	n := l.normalized()
	return fmt.Sprintf("%s %s K%d C%d Y%d X%d R%d S%d s%d x%d",
		n.Name, n.Kind, n.K, n.C, n.Y, n.X, n.R, n.S, n.Stride, n.Mult)
}

// Class partitions the benchmark suite for constraint selection (Table 1).
type Class int

const (
	// VisionLight models must sustain >=40 FPS at the edge.
	VisionLight Class = iota
	// VisionLarge models must sustain >=10 FPS.
	VisionLarge
	// NLP models carry model-specific sample-rate floors.
	NLP
)

// Model is a DNN workload: its unique layers and its execution-constraint
// class. MaxLatencyMs is the single-stream latency ceiling implied by the
// model's Table 1 throughput floor.
type Model struct {
	Name         string
	Class        Class
	Layers       []Layer
	MaxLatencyMs float64
}

// TotalLayers returns the operator count including multiplicities; the paper
// reports these totals in §5 and the suite in models.go matches them.
func (m *Model) TotalLayers() int {
	t := 0
	for _, l := range m.Layers {
		t += l.normalized().Mult
	}
	return t
}

// UniqueLayers returns the number of distinct tensor shapes.
func (m *Model) UniqueLayers() int { return len(m.Layers) }

// TotalMACs returns the network MAC count including multiplicities.
func (m *Model) TotalMACs() int64 {
	var t int64
	for _, l := range m.Layers {
		t += l.MACs() * int64(l.normalized().Mult)
	}
	return t
}

// Validate checks structural sanity of the model definition.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("workload: model %s has no layers", m.Name)
	}
	if m.MaxLatencyMs <= 0 {
		return fmt.Errorf("workload: model %s has no latency constraint", m.Name)
	}
	for _, l := range m.Layers {
		n := l.normalized()
		if n.Kind == Gemm && (n.Y != 1 || n.R != 1 || n.S != 1) {
			return fmt.Errorf("workload: GEMM layer %s must have Y=R=S=1", n.Name)
		}
		if l.K <= 0 || l.Mult <= 0 {
			return fmt.Errorf("workload: layer %s has non-positive K or Mult", l.Name)
		}
	}
	return nil
}
