package accelmodel

import (
	"fmt"
	"math"

	"xdse/internal/arch"
	"xdse/internal/bottleneck"
	"xdse/internal/energy"
	"xdse/internal/eval"
	"xdse/internal/mapping"
	"xdse/internal/search"
)

// Energy bottleneck model. The paper develops latency as its running
// example and notes the API generalizes to other costs; this file expresses
// the inference-energy cost of a layer as an additive bottleneck tree —
// compute energy, register-file energy, scratchpad/NoC transfer energy, and
// DRAM energy — with mitigations that trade buffer capacity for data reuse.

// Factor-node names of the energy tree.
const (
	FactorEnergy = "energy_pJ"
	FactorEMac   = "E_mac"
	FactorERF    = "E_rf"
	FactorEL2NoC = "E_l2_noc"
	FactorEDRAM  = "E_dram"
)

// energyDRAMFactor names the per-operand DRAM-energy factor node.
func energyDRAMFactor(op arch.Operand) string { return opNames[op].dram }

// EnergyTree builds the additive energy bottleneck tree of one layer
// execution (picojoules for a single occurrence).
func EnergyTree(le eval.LayerEval, est energy.Estimate) *bottleneck.Node {
	b := le.Perf
	a := newArena(5+arch.NumOperands, 4+arch.NumOperands)

	mac := a.node(FactorEMac, bottleneck.Leaf, b.MACs*est.MACPJ, nil)
	rf := a.node(FactorERF, bottleneck.Leaf, 3*b.MACs*est.RFAccessPJ, nil)

	var noc float64
	for _, op := range arch.Operands {
		noc += b.DataNoC[op]
	}
	l2noc := a.node(FactorEL2NoC, bottleneck.Leaf, noc/2*est.L2AccessPJ+noc*est.NoCPerByte, l1Params)

	var dramKids [arch.NumOperands]*bottleneck.Node
	for _, op := range arch.Operands {
		dramKids[op] = a.node(opNames[op].dram, bottleneck.Leaf, b.DataOffchip[op]*est.DRAMPerByte, l2Params)
	}
	dram := a.node(FactorEDRAM, bottleneck.AddOp, 0, l2Params, dramKids[:]...)

	return a.node(FactorEnergy, bottleneck.AddOp, 0, nil, mac, rf, l2noc, dram)
}

// mitigateEnergy applies the energy-specific mitigation subroutines: DRAM
// energy shrinks by exploiting off-chip reuse through a larger scratchpad,
// and scratchpad/NoC energy by exploiting register-file reuse.
func (m *Model) mitigateEnergy(bn bottleneck.Bottleneck, le eval.LayerEval, d arch.Design) []search.Prediction {
	switch bn.Factor.Name {
	case FactorEDRAM:
		op := criticalOperand(bn, energyDRAMFactor)
		return m.predictSPMGrowth(bn.Scaling, op, le, d)
	case FactorEL2NoC:
		// Pick the heaviest NoC operand as the reuse target.
		best, bestBytes := arch.OpW, le.Perf.DataNoC[arch.OpW]
		for _, op := range arch.Operands[1:] {
			if le.Perf.DataNoC[op] > bestBytes {
				best, bestBytes = op, le.Perf.DataNoC[op]
			}
		}
		return m.predictRFGrowth(bn.Scaling, best, le, d)
	}
	// Compute and RF energies are workload-intrinsic at fixed precision;
	// no parameter reduces them without changing the workload.
	return nil
}

// predictSPMGrowth sizes the scratchpad by the Amdahl-limited reuse of the
// bottleneck operand (shared by the DMA-time and DRAM-energy mitigations).
func (m *Model) predictSPMGrowth(s float64, op arch.Operand, le eval.LayerEval, d arch.Design) []search.Prediction {
	b := le.Perf
	idx, ok := m.paramIndex("L2_KB")
	if !ok {
		return nil
	}
	footprint := 0.0
	for _, o := range arch.Operands {
		footprint += b.DataOffchip[o]
	}
	if footprint <= 0 {
		return nil
	}
	t := operandTensor(op)
	avail := b.ReuseAvailSPM[t]
	if avail <= 1.001 {
		return nil
	}
	f := b.DataOffchip[op] / footprint
	denom := 1 - s + s*f
	a := math.Inf(1)
	if denom > 0 {
		a = s * f / denom
	}
	target := math.Min(avail, a)
	if target <= 1 {
		return nil
	}
	var newSPM float64
	for tt := mapping.Tensor(0); tt < mapping.NumTensors; tt++ {
		alloc := b.DataSPM[tt] * target / math.Max(b.ReuseAvailSPM[tt], 1)
		if alloc < b.DataSPM[tt] {
			alloc = b.DataSPM[tt]
		}
		newSPM += alloc
	}
	wantKB := int(math.Ceil(newSPM / 1024))
	if wantKB <= d.L2KB {
		return nil
	}
	return []search.Prediction{{
		Param: idx, Value: wantKB, Rule: "spm-grow",
		Why: fmt.Sprintf("DRAM-bound on %v: grow L2 %dKB -> %dKB to exploit %.2fx reuse (Amdahl A=%.2f)", op, d.L2KB, wantKB, target, a),
	}}
}

// predictRFGrowth sizes the register file by the remaining RF reuse of the
// target operand (shared by the NoC-time and NoC-energy mitigations).
func (m *Model) predictRFGrowth(s float64, op arch.Operand, le eval.LayerEval, d arch.Design) []search.Prediction {
	b := le.Perf
	idx, ok := m.paramIndex("L1_bytes")
	if !ok {
		return nil
	}
	t := operandTensor(op)
	avail := b.ReuseAvailRF[t]
	if avail <= 1.001 {
		return nil
	}
	target := math.Min(avail, s)
	var newRF float64
	for tt := mapping.Tensor(0); tt < mapping.NumTensors; tt++ {
		alloc := b.DataRF[tt] * target / math.Max(b.ReuseAvailRF[tt], 1)
		if alloc < b.DataRF[tt] {
			alloc = b.DataRF[tt]
		}
		newRF += alloc
	}
	if newRF <= float64(d.L1Bytes) {
		return nil
	}
	return []search.Prediction{{
		Param: idx, Value: int(math.Ceil(newRF)), Rule: "rf-grow",
		Why: fmt.Sprintf("NoC-traffic-bound on %v: grow RF %dB -> %.0fB for %.2fx more reuse", op, d.L1Bytes, newRF, target),
	}}
}
