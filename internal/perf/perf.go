// Package perf is the analytical latency and execution-characteristics
// model of the accelerator template, standing in for the dMazeRunner cost
// model the paper builds on. For a (design, layer, mapping) triple it
// produces the full factor breakdown of the paper's Fig. 8 latency tree —
// computation time, per-operand NoC time, and DMA time — plus every
// execution characteristic §4.7 lists as input to bottleneck mitigation
// (off-chip and NoC traffic per operand, NoC group/broadcast geometry,
// per-tensor buffer allocations, and remaining exploitable reuse).
package perf

import (
	"strconv"

	"xdse/internal/arch"
	"xdse/internal/mapping"
)

// dmaBurstSetupCycles is the fixed DMA overhead charged per non-contiguous
// burst (dMazeRunner models this overhead of non-contiguous accesses).
const dmaBurstSetupCycles = 8.0

// Breakdown is the full evaluation of one layer execution. All times are in
// accelerator cycles; all data volumes in bytes.
type Breakdown struct {
	// Valid reports whether the mapping is compatible with the design.
	Valid bool
	// Incompat explains the incompatibility when Valid is false.
	Incompat string
	// IncompatCount is the number of distinct incompatibilities (e.g.
	// operand NoCs short on time-shared unicast); the constraint budget
	// uses it so partial fixes register as progress.
	IncompatCount int

	TComp float64
	TNoC  [arch.NumOperands]float64
	TDMA  float64
	// TDMAOp is the per-operand share of the DMA time (TDMA is their sum).
	TDMAOp [arch.NumOperands]float64
	// Cycles is the layer latency: max(TComp, max TNoC, TDMA).
	Cycles float64

	// PEsUsed is the spatial occupancy of the mapping.
	PEsUsed int

	// DataOffchip is the per-operand off-chip traffic.
	DataOffchip [arch.NumOperands]float64
	// DataNoC is the per-operand L2-to-PE traffic.
	DataNoC [arch.NumOperands]float64
	// NoCGroups is the number of PE groups needing distinct data per
	// operand (max concurrent unicast demand).
	NoCGroups [arch.NumOperands]int
	// NoCBytesPerGroup is the broadcast size per group per load.
	NoCBytesPerGroup [arch.NumOperands]float64
	// VirtNeeded is the required time-sharing degree per operand NoC.
	VirtNeeded [arch.NumOperands]int

	// DataRF and DataSPM are the per-tensor buffer allocations (bytes).
	DataRF  [mapping.NumTensors]float64
	DataSPM [mapping.NumTensors]float64
	// ReuseAvailRF and ReuseAvailSPM are the remaining refetch factors a
	// larger RF / scratchpad could eliminate (1 = fully reused already).
	ReuseAvailRF  [mapping.NumTensors]float64
	ReuseAvailSPM [mapping.NumTensors]float64

	// MACs is the padded MAC count executed.
	MACs float64
}

// OperandTensor maps an operand NoC to the logical tensor it carries.
func OperandTensor(op arch.Operand) mapping.Tensor {
	switch op {
	case arch.OpW:
		return mapping.TW
	case arch.OpI:
		return mapping.TI
	default:
		return mapping.TO
	}
}

// MaxTNoC returns the slowest operand NoC and its time.
func (b *Breakdown) MaxTNoC() (arch.Operand, float64) {
	best, bestT := arch.OpW, b.TNoC[arch.OpW]
	for _, op := range arch.Operands[1:] {
		if b.TNoC[op] > bestT {
			best, bestT = op, b.TNoC[op]
		}
	}
	return best, bestT
}

// MappingSubKey returns a canonical key of exactly the design parameters
// the cost model reads: PEs, the L1/L2 capacities, the NoC width and
// per-operand physical/virtual link counts, and the off-chip-bandwidth-to-
// frequency ratio (the model only ever consumes OffchipMBps and FreqMHz
// through BytesPerCycle, so the ratio is captured as a gcd-reduced integer
// pair — two designs at different clocks but the same bytes/cycle share a
// key). Two designs with equal sub-keys are indistinguishable to
// EvalContext for every (layer, mapping) pair, which is what makes the
// layer-grain mapping cache in internal/eval sound. When adding a field to
// arch.Design that NewContext reads, extend this key
// (TestMappingSubKeyCoversDesign guards against forgetting).
func MappingSubKey(d arch.Design) string {
	num, den := d.OffchipMBps, d.FreqMHz
	if den <= 0 {
		num, den = 0, 1
	}
	if num < 0 {
		num = 0
	}
	if g := gcd(num, den); g > 1 {
		num, den = num/g, den/g
	}
	// Built with strconv appends rather than fmt (this runs once per design
	// evaluation, and once per layer search it showed up at ~10% of a warm
	// campaign under fmt). The byte
	// layout is identical to the original
	// "pe%d,l1:%d,l2:%d,noc%d,bpc%d/%d" + ",%v:%dx%d" format — persisted
	// cache records key on this string, so the layout must not change
	// without retiring them (see ModelVersion).
	b := make([]byte, 0, 96)
	b = append(b, "pe"...)
	b = strconv.AppendInt(b, int64(d.PEs), 10)
	b = append(b, ",l1:"...)
	b = strconv.AppendInt(b, int64(d.L1Bytes), 10)
	b = append(b, ",l2:"...)
	b = strconv.AppendInt(b, int64(d.L2Bytes()), 10)
	b = append(b, ",noc"...)
	b = strconv.AppendInt(b, int64(d.NoCWidthBits), 10)
	b = append(b, ",bpc"...)
	b = strconv.AppendInt(b, int64(num), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(den), 10)
	for _, op := range arch.Operands {
		b = append(b, ',')
		b = append(b, op.String()...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(d.PhysLinks[op]), 10)
		b = append(b, 'x')
		b = strconv.AppendInt(b, int64(d.VirtLinks[op]), 10)
	}
	return string(b)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
