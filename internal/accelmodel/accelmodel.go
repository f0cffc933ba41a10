// Package accelmodel is the domain-specific bottleneck model of DNN
// accelerator latency described in §4.7 of the paper, expressed through the
// generic API of internal/bottleneck. It provides the three artifacts of
// Fig. 7: (a) the latency bottleneck graph of every layer execution
// (Fig. 8), plus area/power graphs for violated constraints; (b) the
// dictionary associating cost factors with design parameters; and (c) the
// mitigation subroutines that predict new parameter values from the
// required scaling and the execution characteristics of the current design.
package accelmodel

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xdse/internal/arch"
	"xdse/internal/bottleneck"
	"xdse/internal/energy"
	"xdse/internal/eval"
	"xdse/internal/mapping"
	"xdse/internal/search"
)

// Factor-node names of the latency tree; the parameter dictionary and the
// mitigation dispatch key on these.
const (
	FactorLatency = "latency"
	FactorComp    = "T_comp"
	FactorNoC     = "T_noc"
	FactorDMA     = "T_dma"
)

// operandNames holds the strings one operand's factor nodes and
// parameters are named by.
type operandNames struct {
	noc, dma, dram string // factor nodes: T_noc_W, T_dma_W, E_dram_W
	phys, virt     string // space parameters: phys_unicast_W, virt_unicast_W
	nocParams      []string
}

// opNames is built once, so no tree, mitigation or parameter lookup
// formats an operand's names.
var opNames = func() (t [arch.NumOperands]operandNames) {
	for _, op := range arch.Operands {
		s, n := op.String(), &t[op]
		n.noc, n.dma, n.dram = "T_noc_"+s, "T_dma_"+s, "E_dram_"+s
		n.phys, n.virt = "phys_unicast_"+s, "virt_unicast_"+s
		n.nocParams = []string{"noc_width_bits", n.phys, n.virt, "L1_bytes"}
	}
	return t
}()

// The dictionary entries (Fig. 7b) shared by every tree. Each has len ==
// cap, so WithParams on a node holding one copies it instead of writing
// into the shared array.
var (
	pesParams = []string{"PEs"}
	l1Params  = []string{"L1_bytes"}
	l2Params  = []string{"L2_KB"}
	dmaParams = []string{"offchip_MBps", "L2_KB"}
	// componentParams is the area/power trees' dictionary; control has
	// no parameter.
	componentParams = [energy.NumComponents][]string{
		energy.CompPEs: pesParams,
		energy.CompRF:  {"L1_bytes", "PEs"},
		energy.CompL2:  l2Params,
		energy.CompNoC: {"noc_width_bits", opNames[arch.OpW].phys, opNames[arch.OpI].phys, opNames[arch.OpORd].phys, opNames[arch.OpOWr].phys},
		energy.CompDMA: {"offchip_MBps"},
	}
)

// nocFactor names the per-operand NoC factor node.
func nocFactor(op arch.Operand) string { return opNames[op].noc }

// dmaFactor names the per-operand DMA factor node.
func dmaFactor(op arch.Operand) string { return opNames[op].dma }

// arena hands out the nodes and child lists of one tree from two slabs
// sized up front, so a tree costs two allocations whatever its size.
type arena struct {
	nodes []bottleneck.Node
	kids  []*bottleneck.Node
}

func newArena(nodes, kids int) arena {
	return arena{make([]bottleneck.Node, 0, nodes), make([]*bottleneck.Node, 0, kids)}
}

// node adds a factor combining children with op; a leaf (no children)
// holds value, an interior node gets its value from Eval.
func (a *arena) node(name string, op bottleneck.Op, value float64, params []string, children ...*bottleneck.Node) *bottleneck.Node {
	a.nodes = append(a.nodes, bottleneck.Node{Name: name, Op: op, Value: value, Params: params})
	n := &a.nodes[len(a.nodes)-1]
	if len(children) > 0 {
		k := len(a.kids)
		a.kids = append(a.kids, children...)
		n.Children = a.kids[k:len(a.kids):len(a.kids)]
	}
	return n
}

// LatencyTree builds the populated Fig. 8 bottleneck tree for one layer
// evaluation: latency = max(computation, per-operand NoC communication,
// additive DMA), with parameter associations at each factor.
func LatencyTree(le eval.LayerEval, d arch.Design) *bottleneck.Node {
	b := le.Perf
	a := newArena(6+2*arch.NumOperands, 5+2*arch.NumOperands)

	comp := a.node(FactorComp, bottleneck.DivOp, 0, pesParams,
		a.node("MACs", bottleneck.Leaf, b.MACs, nil),
		a.node("PEs_used", bottleneck.Leaf, float64(b.PEsUsed), nil))

	var nocKids, dmaKids [arch.NumOperands]*bottleneck.Node
	for _, op := range arch.Operands {
		nocKids[op] = a.node(opNames[op].noc, bottleneck.Leaf, b.TNoC[op], opNames[op].nocParams)
	}
	noc := a.node(FactorNoC, bottleneck.MaxOp, 0, nil, nocKids[:]...)

	for _, op := range arch.Operands {
		dmaKids[op] = a.node(opNames[op].dma, bottleneck.Leaf, b.TDMAOp[op], dmaParams)
	}
	dma := a.node(FactorDMA, bottleneck.AddOp, 0, dmaParams, dmaKids[:]...)

	return a.node(FactorLatency, bottleneck.MaxOp, 0, nil, comp, noc, dma)
}

// AreaTree builds the additive area bottleneck tree from the energy model's
// component breakdown, used when the area constraint is violated.
func AreaTree(est energy.Estimate) *bottleneck.Node {
	return componentTree("area_mm2", est.AreaByComp)
}

// PowerTree builds the additive peak-power bottleneck tree.
func PowerTree(est energy.Estimate) *bottleneck.Node {
	return componentTree("power_w", est.PowerByComp)
}

func componentTree(name string, byComp [energy.NumComponents]float64) *bottleneck.Node {
	a := newArena(1+int(energy.NumComponents), int(energy.NumComponents))
	var kids [energy.NumComponents]*bottleneck.Node
	for c := energy.Component(0); c < energy.NumComponents; c++ {
		kids[c] = a.node(c.String(), bottleneck.Leaf, byComp[c], componentParams[c])
	}
	return a.node(name, bottleneck.AddOp, 0, nil, kids[:]...)
}

// Model is the DNN-accelerator domain model consumed by the Explainable-DSE
// engine: it enumerates sub-function costs (unique layers across all target
// workloads) and turns bottleneck analyses into parameter predictions.
type Model struct {
	Space       *arch.Space
	Constraints eval.Constraints
	// Objective selects which bottleneck model drives the analysis:
	// the Fig. 8 latency tree (default) or the additive energy tree.
	Objective eval.Objective
}

// New returns a Model over the design space and constraint thresholds.
func New(space *arch.Space, c eval.Constraints) *Model {
	return &Model{Space: space, Constraints: c}
}

// paramIndex resolves a dictionary parameter name to its design-space index.
func (m *Model) paramIndex(name string) (int, bool) {
	for i, p := range m.Space.Params {
		if p.Name == name {
			return i, true
		}
	}
	return 0, false
}

// subRef locates sub-function i inside the evaluation result.
func subRef(r *eval.Result, i int) (mi, li int) {
	for mi = range r.Models {
		n := len(r.Models[mi].Layers)
		if i < n {
			return mi, i
		}
		i -= n
	}
	return -1, -1
}

// SubCosts returns the objective contribution of every sub-function: each
// unique layer's total cycles (multiplicity included) across all target
// workloads, flattened in model order. Layers whose mapping is incompatible
// with the design dominate the cost ranking so their incompatibility is
// mitigated first.
func (m *Model) SubCosts(raw any) []float64 {
	r := raw.(*eval.Result)
	n := 0
	for _, me := range r.Models {
		n += len(me.Layers)
	}
	out := make([]float64, 0, n)
	for _, me := range r.Models {
		for i := range me.Layers {
			le := &me.Layers[i] // a LayerEval is too large to copy per layer
			c := le.TotalCycles
			if m.Objective == eval.MinEnergy {
				c = le.EnergyMJ
			}
			if !le.Perf.Valid {
				c = math.MaxFloat64 / 1e6
			}
			out = append(out, c)
		}
	}
	return out
}

// MitigateObjective analyzes the bottleneck tree of sub-function `sub` and
// returns up to maxBottlenecks mitigations (§4.3, §4.7) plus the rendered
// tree as the explanation artifact.
func (m *Model) MitigateObjective(raw any, sub, maxBottlenecks int) ([]search.Prediction, string) {
	r := raw.(*eval.Result)
	mi, li := subRef(r, sub)
	if mi < 0 {
		return nil, ""
	}
	le := r.Models[mi].Layers[li]
	if !le.Perf.Valid {
		return m.mitigateIncompatible(le, r.Design)
	}
	if m.Objective == eval.MinEnergy {
		return explainTree(EnergyTree(le, r.Energy), maxBottlenecks, func(bn bottleneck.Bottleneck) []search.Prediction {
			return m.mitigateEnergy(bn, le, r.Design)
		})
	}
	return explainTree(LatencyTree(le, r.Design), maxBottlenecks, func(bn bottleneck.Bottleneck) []search.Prediction {
		return m.mitigate(bn, le, r.Design)
	})
}

// explainTree analyzes up to maxBottlenecks bottlenecks of root, predicts
// their mitigations with mitigate, and returns the predictions with the
// explanation: the rendered tree, then one mitigation line per prediction.
func explainTree(root *bottleneck.Node, maxBottlenecks int, mitigate func(bottleneck.Bottleneck) []search.Prediction) ([]search.Prediction, string) {
	bns := bottleneck.Analyze(root, maxBottlenecks)

	var preds []search.Prediction
	var explain strings.Builder
	explain.WriteString(bottleneck.Render(root))
	for i, bn := range bns {
		if bn.Scaling <= 1.001 {
			if i > 0 {
				continue
			}
			// Balanced factors: keep pushing the primary one with a
			// default doubling — the §4.6 budget-aware update
			// rejects it once constraints can't afford more.
			bn.Scaling = 2
		}
		ps := mitigate(bn)
		stampProvenance(ps, bn)
		for _, p := range ps {
			writeMitigation(&explain, bn, p.Why)
		}
		preds = append(preds, ps...)
	}
	return preds, explain.String()
}

// writeMitigation writes the explanation line of one prediction made while
// mitigating bn, formatted as fmt's "mitigate %s (%.0f%%, s=%.2f): %s\n"
// of the factor, its contribution in percent, the scaling and why.
func writeMitigation(b *strings.Builder, bn bottleneck.Bottleneck, why string) {
	var num [32]byte
	b.WriteString("mitigate ")
	b.WriteString(bn.Factor.Name)
	b.WriteString(" (")
	b.Write(strconv.AppendFloat(num[:0], bn.Contribution*100, 'f', 0, 64))
	b.WriteString("%, s=")
	b.Write(strconv.AppendFloat(num[:0], bn.Scaling, 'f', 2, 64))
	b.WriteString("): ")
	b.WriteString(why)
	b.WriteByte('\n')
}

// stampProvenance fills the trace-provenance fields of predictions produced
// while mitigating one bottleneck: the subroutines name their Rule, the
// analysis loop attributes the driving factor, its cost contribution, and
// the targeted scaling. Already-attributed predictions are left alone.
func stampProvenance(ps []search.Prediction, bn bottleneck.Bottleneck) {
	for i := range ps {
		if ps[i].Factor == "" {
			ps[i].Factor = bn.Factor.Name
		}
		ps[i].Contribution = bn.Contribution
		ps[i].Scaling = bn.Scaling
	}
}

// mitigateIncompatible predicts the resource growth that makes an
// incompatible layer mappable: more time-shared unicast when spatial
// parallelism exceeds the NoC budget, and larger buffers when tiles
// overflow (these are the hardware/mapping incompatibilities §6.2 blames
// for the infeasibility of fixed-dataflow black-box DSE).
func (m *Model) mitigateIncompatible(le eval.LayerEval, d arch.Design) ([]search.Prediction, string) {
	var preds []search.Prediction
	b := le.Perf
	for _, op := range arch.Operands {
		if b.VirtNeeded[op] > d.VirtLinks[op] {
			if idx, ok := m.paramIndex(opNames[op].virt); ok {
				preds = append(preds, search.Prediction{
					Param: idx, Value: b.VirtNeeded[op],
					Factor: "incompatible", Rule: "incompat-virt",
					Why: fmt.Sprintf("incompatible: %v NoC needs %d-way time-sharing (has %d)", op, b.VirtNeeded[op], d.VirtLinks[op]),
				})
			}
		}
	}
	if strings.Contains(b.Incompat, "RF tile") {
		if idx, ok := m.paramIndex("L1_bytes"); ok {
			preds = append(preds, search.Prediction{
				Param: idx, Value: 2 * d.L1Bytes,
				Factor: "incompatible", Rule: "incompat-rf",
				Why: "incompatible: RF tile overflows L1; double it",
			})
		}
	}
	if strings.Contains(b.Incompat, "scratchpad") {
		if idx, ok := m.paramIndex("L2_KB"); ok {
			preds = append(preds, search.Prediction{
				Param: idx, Value: 2 * d.L2KB,
				Factor: "incompatible", Rule: "incompat-spm",
				Why: "incompatible: L2 tile overflows scratchpad; double it",
			})
		}
	}
	explain := "incompatible mapping: " + b.Incompat + "\n"
	return preds, explain
}

// mitigate dispatches on the bottleneck factor and applies the §4.7
// prediction subroutines.
func (m *Model) mitigate(bn bottleneck.Bottleneck, le eval.LayerEval, d arch.Design) []search.Prediction {
	switch bn.Factor.Name {
	case FactorComp:
		if le.Perf.PEsUsed*2 <= d.PEs {
			// The mapper left most PEs idle: computation is bound
			// not by the PE count but by whatever stops spatial
			// mappings — provision the NoCs for more concurrent
			// PE groups instead of buying more idle PEs.
			return m.predictSpatialEnable(bn.Scaling, le, d)
		}
		return m.predictPEs(bn.Scaling, d)
	case FactorNoC:
		op := criticalOperand(bn, nocFactor)
		return m.predictNoC(bn.Scaling, op, le, d)
	case FactorDMA:
		op := criticalOperand(bn, dmaFactor)
		return m.predictDMA(bn.Scaling, op, le, d)
	}
	return nil
}

// criticalOperand extracts the operand named on the bottleneck's critical
// path (e.g. "T_noc_I" -> OpI); it falls back to the heaviest operand name
// match or OpW.
func criticalOperand(bn bottleneck.Bottleneck, factor func(arch.Operand) string) arch.Operand {
	for _, n := range bn.Critical {
		for _, op := range arch.Operands {
			if n.Name == factor(op) {
				return op
			}
		}
	}
	return arch.OpW
}

// predictPEs: PEs_new = s * PEs_current.
func (m *Model) predictPEs(s float64, d arch.Design) []search.Prediction {
	idx, ok := m.paramIndex("PEs")
	if !ok {
		return nil
	}
	want := int(math.Ceil(s * float64(d.PEs)))
	return []search.Prediction{{
		Param: idx, Value: want, Rule: "scale-pes",
		Why: fmt.Sprintf("computation-bound: scale PEs %d -> %d (s=%.2f)", d.PEs, want, s),
	}}
}

// predictSpatialEnable targets the parallelism blockers of an execution
// whose mapping occupies far fewer PEs than the design provides: every
// operand NoC gets enough time-shared (and physical) unicast to serve the
// PE-group demand of an s-times-more-parallel mapping.
func (m *Model) predictSpatialEnable(s float64, le eval.LayerEval, d arch.Design) []search.Prediction {
	b := le.Perf
	desired := int(math.Ceil(s * math.Max(float64(b.PEsUsed), 1)))
	if desired > d.PEs {
		desired = d.PEs
	}
	var preds []search.Prediction
	for _, op := range arch.Operands {
		links := d.PhysLinks[op]
		if links < 1 {
			links = 1
		}
		// Time-shared unicast is the cheap way to admit parallelism;
		// physical links grow only once virtual capacity is exhausted
		// (performance-driven link growth comes from the NoC-time
		// mitigation, demand-clamped to the actual group count).
		shares := (desired + links - 1) / links
		if shares > d.VirtLinks[op] {
			idx, ok := m.paramIndex(opNames[op].virt)
			if !ok {
				continue
			}
			maxVirt := m.Space.Params[idx].Values[len(m.Space.Params[idx].Values)-1]
			if shares <= maxVirt {
				preds = append(preds, search.Prediction{
					Param: idx, Value: shares, Rule: "spatial-virt",
					Why: fmt.Sprintf("only %d/%d PEs mappable: raise %v time-shared unicast to %d for %d-way parallelism", b.PEsUsed, d.PEs, op, shares, desired),
				})
			} else if lidx, ok := m.paramIndex(opNames[op].phys); ok {
				want := (desired + maxVirt - 1) / maxVirt
				if want > d.PhysLinks[op] {
					preds = append(preds, search.Prediction{
						Param: lidx, Value: want, Rule: "spatial-links",
						Why: fmt.Sprintf("only %d/%d PEs mappable: grow %v unicast links to %d (virtual capacity maxed)", b.PEsUsed, d.PEs, op, want),
					})
				}
			}
		}
	}
	if len(preds) == 0 {
		return m.predictPEs(s, d)
	}
	return preds
}

// predictNoC scales the bottleneck operand's NoC width and unicast links
// (clamped to the one-shot broadcast width and the concurrent-group demand)
// and sizes the RF to exploit the operand's remaining register-file reuse.
func (m *Model) predictNoC(s float64, op arch.Operand, le eval.LayerEval, d arch.Design) []search.Prediction {
	b := le.Perf
	var preds []search.Prediction

	// Bus width, clamped to a one-shot broadcast of the group payload.
	if idx, ok := m.paramIndex("noc_width_bits"); ok {
		maxWidth := b.NoCBytesPerGroup[op] * 8
		want := math.Min(float64(d.NoCWidthBits)*s, maxWidth)
		if want > float64(d.NoCWidthBits) {
			preds = append(preds, search.Prediction{
				Param: idx, Value: int(math.Ceil(want)), Rule: "noc-width",
				Why: fmt.Sprintf("%v NoC: widen bus %db -> %.0fb (broadcast cap %.0fb)", op, d.NoCWidthBits, want, maxWidth),
			})
		}
	}

	// Physical unicast links, clamped to the concurrent-group demand.
	if idx, ok := m.paramIndex(opNames[op].phys); ok {
		maxLinks := float64(b.NoCGroups[op])
		want := math.Min(float64(d.PhysLinks[op])*s, maxLinks)
		if want > float64(d.PhysLinks[op]) {
			preds = append(preds, search.Prediction{
				Param: idx, Value: int(math.Ceil(want)), Rule: "noc-links",
				Why: fmt.Sprintf("%v NoC: add unicast links %d -> %.0f (groups %d)", op, d.PhysLinks[op], want, b.NoCGroups[op]),
			})
		}
	}

	// Time-shared (virtual) unicast to admit more spatial parallelism.
	if idx, ok := m.paramIndex(opNames[op].virt); ok {
		if need := b.VirtNeeded[op]; need > 1 && need > d.VirtLinks[op]/2 {
			preds = append(preds, search.Prediction{
				Param: idx, Value: 2 * need, Rule: "noc-virt",
				Why: fmt.Sprintf("%v NoC: raise time-shared unicast to %d (needed %d)", op, 2*need, need),
			})
		}
	}

	// RF sizing: exploit the bottleneck operand's remaining RF reuse.
	rfPreds := m.predictRFGrowth(s, op, le, d)
	preds = append(preds, rfPreds...)
	rfPredicted := len(rfPreds) > 0
	// Every direct mitigation is clamped out (bus already covers the
	// broadcast payload, links cover the groups, no computable RF
	// target): grow the RF so larger payloads and more reuse become
	// possible — L1 is in the dictionary of NoC-time parameters.
	if len(preds) == 0 && !rfPredicted {
		if idx, ok := m.paramIndex("L1_bytes"); ok {
			preds = append(preds, search.Prediction{
				Param: idx, Value: 2 * d.L1Bytes, Rule: "rf-grow",
				Why: fmt.Sprintf("%v NoC bound with clamped width/links: double RF to %dB for larger broadcast payloads", op, 2*d.L1Bytes),
			})
		}
	}
	return preds
}

// predictDMA scales off-chip bandwidth to hit the target DMA time and sizes
// the scratchpad by the Amdahl-limited reuse of the bottleneck operand.
func (m *Model) predictDMA(s float64, op arch.Operand, le eval.LayerEval, d arch.Design) []search.Prediction {
	b := le.Perf
	var preds []search.Prediction

	footprint := 0.0
	for _, o := range arch.Operands {
		footprint += b.DataOffchip[o]
	}

	// Off-chip bandwidth: bytes_per_cycle = footprint / (T_dma / s).
	if idx, ok := m.paramIndex("offchip_MBps"); ok && b.TDMA > 0 {
		scaledT := b.TDMA / s
		bpcNew := footprint / scaledT
		want := int(math.Ceil(bpcNew * float64(d.FreqMHz)))
		if want > d.OffchipMBps {
			preds = append(preds, search.Prediction{
				Param: idx, Value: want, Rule: "dma-bandwidth",
				Why: fmt.Sprintf("DMA-bound: raise bandwidth %d -> %d MBps (s=%.2f)", d.OffchipMBps, want, s),
			})
		}
	}

	// Scratchpad sizing with Amdahl-limited achievable speedup A.
	preds = append(preds, m.predictSPMGrowth(s, op, le, d)...)
	return preds
}

// operandTensor maps an operand NoC to its logical tensor.
func operandTensor(op arch.Operand) mapping.Tensor {
	switch op {
	case arch.OpW:
		return mapping.TW
	case arch.OpI:
		return mapping.TI
	default:
		return mapping.TO
	}
}

// MitigateConstraints analyzes the area/power trees of a
// constraint-violating solution and predicts shrunken parameter values for
// the dominant components (footnote 4 of the paper: meet constraints first,
// even at the cost of communication time).
func (m *Model) MitigateConstraints(raw any) ([]search.Prediction, string) {
	r := raw.(*eval.Result)
	var preds []search.Prediction
	var explain strings.Builder

	type violated struct {
		tree  *bottleneck.Node
		s     float64
		label string
	}
	var trees []violated
	if r.AreaMM2 > m.Constraints.MaxAreaMM2 {
		trees = append(trees, violated{AreaTree(r.Energy), r.AreaMM2 / m.Constraints.MaxAreaMM2, "area"})
	}
	if r.PowerW > m.Constraints.MaxPowerW {
		trees = append(trees, violated{PowerTree(r.Energy), r.PowerW / m.Constraints.MaxPowerW, "power"})
	}
	for _, v := range trees {
		explain.WriteString(bottleneck.Render(v.tree))
		for _, bn := range bottleneck.Analyze(v.tree, 2) {
			s := v.s * 1.1 // shrink past the threshold with margin
			for _, name := range bn.Params {
				idx, ok := m.paramIndex(name)
				if !ok {
					continue
				}
				cur := m.currentPhysical(idx, r.Design)
				want := int(math.Floor(float64(cur) / s))
				if want < 1 {
					want = 1
				}
				if want < cur {
					p := search.Prediction{
						Param: idx, Value: want, Reduce: true,
						Factor: v.label, Scaling: v.s, Rule: "shrink",
						Why: shrinkWhy(v.label, v.s, name, cur, want),
					}
					explain.WriteString(p.Why)
					explain.WriteByte('\n')
					preds = append(preds, p)
				}
			}
		}
	}
	return preds, explain.String()
}

// shrinkWhy is the reason of one constraint shrink, formatted as fmt's
// "%s violated (%.2fx): shrink %s %d -> %d" of the violated constraint, its
// excess, the parameter and its current and predicted values.
func shrinkWhy(label string, s float64, name string, cur, want int) string {
	var buf [128]byte
	b := append(buf[:0], label...)
	b = append(b, " violated ("...)
	b = strconv.AppendFloat(b, s, 'f', 2, 64)
	b = append(b, "x): shrink "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(cur), 10)
	b = append(b, " -> "...)
	b = strconv.AppendInt(b, int64(want), 10)
	return string(b)
}

// currentPhysical returns the physical value of parameter idx in design d.
func (m *Model) currentPhysical(idx int, d arch.Design) int {
	switch m.Space.Params[idx].Name {
	case "PEs":
		return d.PEs
	case "L1_bytes":
		return d.L1Bytes
	case "L2_KB":
		return d.L2KB
	case "offchip_MBps":
		return d.OffchipMBps
	case "noc_width_bits":
		return d.NoCWidthBits
	}
	for _, op := range arch.Operands {
		if m.Space.Params[idx].Name == opNames[op].phys {
			return d.PhysLinks[op]
		}
		if m.Space.Params[idx].Name == opNames[op].virt {
			return d.VirtLinks[op]
		}
	}
	return 1
}
