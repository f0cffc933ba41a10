// Package arch defines the accelerator architecture template and the
// discrete hardware design space explored by the DSE (Table 1 of the
// Explainable-DSE paper).
//
// The architecture template is a spatial DNN accelerator: a grid of
// processing elements (PEs) each with a private register file (L1), a shared
// on-chip scratchpad (L2), one dedicated network-on-chip (NoC) per data
// operand, and a DMA engine for off-chip accesses. Design points are
// immutable value structs; the design space describes, per parameter, the
// ordered list of legal values.
package arch

import (
	"fmt"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
)

// Operand identifies one of the four data streams of the accelerator, each
// of which is served by a dedicated NoC (as in Eyeriss-style designs).
type Operand int

const (
	// OpW is the weight (filter) operand.
	OpW Operand = iota
	// OpI is the input-activation operand.
	OpI
	// OpORd is the output operand read path (partial-sum reads).
	OpORd
	// OpOWr is the output operand write path.
	OpOWr

	// NumOperands is the number of operand NoCs in the template.
	NumOperands = 4
)

// String returns the conventional short name of the operand.
func (op Operand) String() string {
	switch op {
	case OpW:
		return "W"
	case OpI:
		return "I"
	case OpORd:
		return "Ord"
	case OpOWr:
		return "Owr"
	}
	return fmt.Sprintf("Operand(%d)", int(op))
}

// Operands lists all operands in order; convenient for range loops.
var Operands = [NumOperands]Operand{OpW, OpI, OpORd, OpOWr}

// Design is a concrete hardware configuration of the accelerator template.
// All quantities are physical values (not design-space indices).
type Design struct {
	// PEs is the total number of processing elements (1 MAC/cycle each).
	PEs int
	// L1Bytes is the per-PE register-file capacity in bytes.
	L1Bytes int
	// L2KB is the shared scratchpad capacity in kilobytes.
	L2KB int
	// OffchipMBps is the DRAM bandwidth in megabytes per second.
	OffchipMBps int
	// NoCWidthBits is the bus width of every operand NoC in bits.
	NoCWidthBits int
	// PhysLinks is the number of physical unicast links of each operand
	// NoC (concurrent distinct-data transfers to PE groups).
	PhysLinks [NumOperands]int
	// VirtLinks is the supported degree of time-shared ("virtual")
	// unicast per physical link of each operand NoC.
	VirtLinks [NumOperands]int
	// FreqMHz is the accelerator clock frequency in MHz.
	FreqMHz int
}

// BytesPerCycle returns the off-chip bandwidth expressed in bytes per
// accelerator clock cycle.
func (d Design) BytesPerCycle() float64 {
	if d.FreqMHz == 0 {
		return 0
	}
	return float64(d.OffchipMBps) / float64(d.FreqMHz)
}

// L2Bytes returns the scratchpad capacity in bytes.
func (d Design) L2Bytes() int { return d.L2KB * 1024 }

// String renders the design compactly for logs and explanations.
func (d Design) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PEs=%d L1=%dB L2=%dKB BW=%dMBps NoC=%db", d.PEs, d.L1Bytes, d.L2KB, d.OffchipMBps, d.NoCWidthBits)
	fmt.Fprintf(&b, " phys=%v virt=%v @%dMHz", d.PhysLinks, d.VirtLinks, d.FreqMHz)
	return b.String()
}

// Valid reports whether all fields are positive and link counts do not
// exceed the PE count (a link per PE group cannot outnumber PEs).
func (d Design) Valid() error {
	if d.PEs <= 0 || d.L1Bytes <= 0 || d.L2KB <= 0 || d.OffchipMBps <= 0 ||
		d.NoCWidthBits <= 0 || d.FreqMHz <= 0 {
		return fmt.Errorf("arch: non-positive field in design %v", d)
	}
	for op := range d.PhysLinks {
		if d.PhysLinks[op] <= 0 || d.VirtLinks[op] <= 0 {
			return fmt.Errorf("arch: non-positive link count for operand %v", Operand(op))
		}
		if d.PhysLinks[op] > d.PEs {
			return fmt.Errorf("arch: operand %v has %d physical links > %d PEs", Operand(op), d.PhysLinks[op], d.PEs)
		}
	}
	return nil
}

// ParamKind distinguishes how a parameter's stored value translates into a
// physical quantity of the design.
type ParamKind int

const (
	// KindAbsolute parameters store the physical value directly.
	KindAbsolute ParamKind = iota
	// KindPERelative parameters store a multiplier i such that the
	// physical value is PEs*i/base (Table 1 expresses physical unicast
	// links as a fraction of total PEs).
	KindPERelative
)

// Param describes one dimension of the design space: a name, the ordered
// list of legal stored values, and how stored values map to physical ones.
type Param struct {
	Name   string
	Values []int
	Kind   ParamKind
	// Base is the divisor for KindPERelative parameters.
	Base int
}

// Options returns the number of legal values of the parameter.
func (p Param) Options() int { return len(p.Values) }

// RoundUpIndex returns the index of the smallest stored value >= v, or the
// last index if v exceeds every value.
func (p Param) RoundUpIndex(v int) int {
	for i, pv := range p.Values {
		if pv >= v {
			return i
		}
	}
	return len(p.Values) - 1
}

// RoundDownIndex returns the index of the largest stored value <= v, or 0 if
// v is below every value.
func (p Param) RoundDownIndex(v int) int {
	idx := 0
	for i, pv := range p.Values {
		if pv <= v {
			idx = i
		}
	}
	return idx
}

// Canonical parameter indices into Space.Params. The per-operand link
// parameters occupy four consecutive slots each.
const (
	PPEs = iota
	PL1
	PL2
	PBW
	PNoCWidth
	PPhys0 // + Operand
	PVirt0 = PPhys0 + NumOperands
	// NumParams is the total number of design-space dimensions.
	NumParams = PVirt0 + NumOperands
)

// Space is the discrete hardware design space: an ordered set of parameters
// plus the fixed clock frequency of the template.
type Space struct {
	Params  []Param
	FreqMHz int
}

// Point is a position in the design space, expressed as one value index per
// parameter, in the order of Space.Params.
type Point []int

// Clone returns an independent copy of the point.
func (pt Point) Clone() Point {
	c := make(Point, len(pt))
	copy(c, pt)
	return c
}

// Equal reports whether two points select identical indices.
func (pt Point) Equal(o Point) bool {
	if len(pt) != len(o) {
		return false
	}
	for i := range pt {
		if pt[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key for use in evaluation caches: the
// decimal indices joined by commas.
func (pt Point) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range pt {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// ParseKey inverts Point.Key, rebuilding the point from its cache-key form.
// It is the checkpoint-resume path back from journaled keys to evaluable
// points; the result is syntactically parsed only — validate it against a
// Space with CheckPoint before decoding.
func ParseKey(key string) (Point, error) {
	if key == "" {
		return nil, fmt.Errorf("arch: empty point key")
	}
	parts := strings.Split(key, ",")
	pt := make(Point, len(parts))
	for i, s := range parts {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("arch: point key %q: %w", key, err)
		}
		pt[i] = v
	}
	return pt, nil
}

// Size returns the cardinality of the design space.
func (s *Space) Size() *big.Int {
	n := big.NewInt(1)
	for _, p := range s.Params {
		n.Mul(n, big.NewInt(int64(len(p.Values))))
	}
	return n
}

// Initial returns the lowest-valued point of the space, the paper's starting
// solution for every exploration (footnote of §F).
func (s *Space) Initial() Point {
	return make(Point, len(s.Params))
}

// Random returns a uniformly random point.
func (s *Space) Random(rng *rand.Rand) Point {
	pt := make(Point, len(s.Params))
	for i, p := range s.Params {
		pt[i] = rng.Intn(len(p.Values))
	}
	return pt
}

// Clamp limits idx to the legal index range of parameter i.
func (s *Space) Clamp(i, idx int) int {
	if idx < 0 {
		return 0
	}
	if n := len(s.Params[i].Values); idx >= n {
		return n - 1
	}
	return idx
}

// CheckPoint reports whether a point is well-formed for this space: the
// arity matches the parameter list and every index addresses a declared
// value. Points built through Space methods always pass; the check exists so
// externally supplied points (resumed journals, hand-written initials) fail
// with a diagnosable error instead of an out-of-range panic deep in Decode.
func (s *Space) CheckPoint(pt Point) error {
	if len(pt) != len(s.Params) {
		return fmt.Errorf("arch: point arity %d != %d params", len(pt), len(s.Params))
	}
	for i, p := range s.Params {
		if pt[i] < 0 || pt[i] >= len(p.Values) {
			return fmt.Errorf("arch: parameter %q index %d out of range [0,%d)", p.Name, pt[i], len(p.Values))
		}
	}
	return nil
}

// Decode materializes a design from a point. Parameters are matched by
// name, so partial or custom spaces decode too: any accelerator field whose
// parameter the space does not declare keeps a neutral default of 1 (16 for
// the NoC width). A malformed point (wrong arity or an out-of-range index)
// returns an error rather than panicking; callers that construct points only
// through Space methods can use MustDecode.
func (s *Space) Decode(pt Point) (Design, error) {
	if err := s.CheckPoint(pt); err != nil {
		return Design{}, err
	}
	d := Design{
		PEs: 1, L1Bytes: 1, L2KB: 1, OffchipMBps: 1, NoCWidthBits: 16,
		FreqMHz: s.FreqMHz,
	}
	for op := 0; op < NumOperands; op++ {
		d.PhysLinks[op] = 1
		d.VirtLinks[op] = 1
	}
	// First pass resolves PEs so PE-relative parameters can decode.
	for i, p := range s.Params {
		if p.Name == "PEs" {
			d.PEs = p.Values[pt[i]]
		}
	}
	for i, p := range s.Params {
		v := s.PhysicalValue(i, pt[i], d.PEs)
		switch p.Name {
		case "PEs", "": // PEs handled above
		case "L1_bytes":
			d.L1Bytes = v
		case "L2_KB":
			d.L2KB = v
		case "offchip_MBps":
			d.OffchipMBps = v
		case "noc_width_bits":
			d.NoCWidthBits = v
		default:
			for op := 0; op < NumOperands; op++ {
				switch p.Name {
				case "phys_unicast_" + Operand(op).String():
					d.PhysLinks[op] = v
				case "virt_unicast_" + Operand(op).String():
					d.VirtLinks[op] = v
				}
			}
		}
	}
	return d, nil
}

// MustDecode is Decode for points known well-formed by construction (built
// through Space methods); it panics on a malformed point the way
// regexp.MustCompile panics on a bad pattern.
func (s *Space) MustDecode(pt Point) Design {
	d, err := s.Decode(pt)
	if err != nil {
		panic(err)
	}
	return d
}

// RoundUpPhysical returns, for parameter i, the index whose physical value is
// the smallest one >= want given the design's PE count (needed because
// physical-unicast parameters are stored as fractions of PEs).
func (s *Space) RoundUpPhysical(i, want, pes int) int {
	p := s.Params[i]
	if p.Kind != KindPERelative {
		return p.RoundUpIndex(want)
	}
	for idx, mult := range p.Values {
		if pes*mult/p.Base >= want {
			return idx
		}
	}
	return len(p.Values) - 1
}

// PhysicalValue returns the physical quantity of parameter i at index idx,
// resolving PE-relative parameters against the given PE count.
func (s *Space) PhysicalValue(i, idx, pes int) int {
	p := s.Params[i]
	if p.Kind == KindPERelative {
		v := pes * p.Values[idx] / p.Base
		if v < 1 {
			v = 1
		}
		return v
	}
	return p.Values[idx]
}
