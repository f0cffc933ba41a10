package perf

import (
	"math"
	"math/rand"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// TestResourceGrowthNeverHurtsProperty is the monotonicity invariant the
// whole bottleneck-mitigation scheme rests on: for a FIXED mapping, growing
// any single hardware resource never increases the layer latency. (Growing
// buffers can change which mappings are legal, but never the cost of a
// mapping that was already legal.)
func TestResourceGrowthNeverHurtsProperty(t *testing.T) {
	layers := []workload.Layer{
		{Kind: workload.Conv, Name: "c", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.Gemm, Name: "g", K: 768, C: 768, Y: 1, X: 384, R: 1, S: 1, Stride: 1, Mult: 1},
		{Kind: workload.DWConv, Name: "d", K: 96, C: 1, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Mult: 1},
	}
	grow := []struct {
		name string
		mut  func(*arch.Design)
	}{
		{"PEs", func(d *arch.Design) { d.PEs *= 2 }},
		{"L1", func(d *arch.Design) { d.L1Bytes *= 2 }},
		{"L2", func(d *arch.Design) { d.L2KB *= 2 }},
		{"BW", func(d *arch.Design) { d.OffchipMBps *= 2 }},
		{"width", func(d *arch.Design) { d.NoCWidthBits *= 2 }},
		{"links", func(d *arch.Design) {
			for op := range d.PhysLinks {
				d.PhysLinks[op] *= 2
			}
		}},
		{"virt", func(d *arch.Design) {
			for op := range d.VirtLinks {
				d.VirtLinks[op] *= 8
			}
		}},
	}
	rng := rand.New(rand.NewSource(21))
	base := testDesign()
	for _, l := range layers {
		dims := mapping.Dims(l)
		checked := 0
		for trial := 0; trial < 1500 && checked < 60; trial++ {
			m := mapping.Random(dims, rng)
			before := NewContext(base, l).Evaluate(m)
			if !before.Valid {
				continue
			}
			checked++
			for _, g := range grow {
				d := base
				g.mut(&d)
				after := NewContext(d, l).Evaluate(m)
				if !after.Valid {
					t.Fatalf("%s/%s: growth invalidated a valid mapping", l.Name, g.name)
				}
				if after.Cycles > before.Cycles*(1+1e-9) {
					t.Fatalf("%s: growing %s increased latency %v -> %v (mapping %v)",
						l.Name, g.name, before.Cycles, after.Cycles, m)
				}
			}
		}
		if checked < 15 {
			t.Fatalf("%s: only %d valid samples", l.Name, checked)
		}
	}
}

// randDesign draws a design across the whole modeling envelope — tiny PEs to
// large arrays, starved to roomy buffers, narrow to wide NoCs — so the
// differential tests cover both validity regimes, not just designs that
// accept most mappings.
func randDesign(rng *rand.Rand) arch.Design {
	d := arch.Design{
		PEs:          1 << (4 + rng.Intn(6)),
		L1Bytes:      64 << rng.Intn(6),
		L2KB:         64 << rng.Intn(5),
		OffchipMBps:  []int{1024, 4096, 8192, 25600}[rng.Intn(4)],
		NoCWidthBits: 16 * (1 + rng.Intn(8)),
		FreqMHz:      []int{200, 500, 1000}[rng.Intn(3)],
	}
	for op := range d.PhysLinks {
		d.PhysLinks[op] = 1 << rng.Intn(7)
		d.VirtLinks[op] = []int{1, 8, 64, 512}[rng.Intn(4)]
	}
	return d
}

// propertyLayers are the operator shapes the differential properties sweep:
// all three kinds, including a strided conv (halo tiles) and a strided
// depthwise (channel-tied inputs).
func propertyLayers() []workload.Layer {
	return []workload.Layer{
		{Kind: workload.Conv, Name: "c3", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.Conv, Name: "c7s2", K: 64, C: 3, Y: 112, X: 112, R: 7, S: 7, Stride: 2, Mult: 1},
		{Kind: workload.Gemm, Name: "g", K: 768, C: 768, Y: 1, X: 384, R: 1, S: 1, Stride: 1, Mult: 1},
		{Kind: workload.DWConv, Name: "dw", K: 96, C: 1, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Mult: 1},
		{Kind: workload.DWConv, Name: "dws2", K: 144, C: 1, Y: 28, X: 28, R: 3, S: 3, Stride: 2, Mult: 1},
	}
}

// TestFastPathMatchesEvaluateProperty is the two-tier cycle-exactness
// contract: over randomized designs x layers x mappings, every entry Tier 1
// (EvaluateFill) prices must be +Inf exactly when the Tier-2 full Breakdown
// says invalid, and bit-exactly (==, no epsilon) its cycles otherwise. Each
// fill is priced in one call over all nine orderings, as the enumerator
// prices it, and once more over a list that revisits DRAM-stationary
// tensors out of order, which catches an off-chip side worked out under the
// wrong tensor. Corrupted fills check the invalid side.
func TestFastPathMatchesEvaluateProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lists := [][]mapping.Mapping{nineOrderings(), {
		{DRAMStationary: mapping.TI, NoCStationary: mapping.TW},
		{DRAMStationary: mapping.TW, NoCStationary: mapping.TO},
		{DRAMStationary: mapping.TI, NoCStationary: mapping.TO},
		{DRAMStationary: mapping.TW, NoCStationary: mapping.TW},
	}}
	cycles := make([]float64, 9)
	for _, l := range propertyLayers() {
		dims := mapping.Dims(l)
		valid, invalid := 0, 0
		for di := 0; di < 12; di++ {
			d := randDesign(rng)
			ctx := NewContext(d, l)
			for trial := 0; trial < 60; trial++ {
				var m mapping.Mapping
				switch {
				case trial == 0:
					// Always-valid anchor: every design accepts the
					// all-sequential mapping, so both sides of the
					// comparison are exercised even on starved designs.
					m = sequentialMapping(l)
				case trial%5 == 4:
					// Structurally invalid mutant: break loop coverage.
					m = mapping.Random(dims, rng)
					m.F[mapping.Dim(rng.Intn(int(mapping.NumDims)))][mapping.LvlDRAM] += 1 + rng.Intn(3)
				default:
					m = mapping.Random(dims, rng)
				}
				for _, ords := range lists {
					ctx.EvaluateFill(&m, ords, cycles)
					for i, o := range ords {
						c := m
						c.DRAMStationary, c.NoCStationary = o.DRAMStationary, o.NoCStationary
						got, want := cycles[i], NewContext(d, l).Evaluate(c)
						if math.IsInf(got, 1) == want.Valid {
							t.Fatalf("%s: fast path %v, Evaluate valid=%v (%q) for %v on %+v",
								l.Name, got, want.Valid, want.Incompat, c, d)
						}
						if !want.Valid {
							invalid++
							continue
						}
						valid++
						if got != want.Cycles {
							t.Fatalf("%s: fast path %v != Evaluate %v (diff %g) for %v on %+v",
								l.Name, got, want.Cycles, got-want.Cycles, c, d)
						}
					}
				}
			}
		}
		if valid < 100 || invalid < 100 {
			t.Fatalf("%s: unbalanced sample (%d valid, %d invalid)", l.Name, valid, invalid)
		}
	}
}

// TestTrafficNonNegativeProperty: no operand ever reports negative traffic
// or time under random mappings.
func TestTrafficNonNegativeProperty(t *testing.T) {
	l := testLayer()
	d := testDesign()
	dims := mapping.Dims(l)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 500; i++ {
		b := NewContext(d, l).Evaluate(mapping.Random(dims, rng))
		if !b.Valid {
			continue
		}
		for _, op := range arch.Operands {
			if b.DataOffchip[op] < 0 || b.DataNoC[op] < 0 || b.TNoC[op] < 0 || b.TDMAOp[op] < 0 {
				t.Fatalf("negative quantity for %v: %+v", op, b)
			}
		}
		if b.TComp <= 0 || b.Cycles <= 0 {
			t.Fatal("non-positive time")
		}
	}
}
