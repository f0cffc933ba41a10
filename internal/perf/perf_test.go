package perf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// testDesign returns a roomy design that accepts most mappings.
func testDesign() arch.Design {
	d := arch.Design{
		PEs: 256, L1Bytes: 1024, L2KB: 1024, OffchipMBps: 8192,
		NoCWidthBits: 64, FreqMHz: 500,
	}
	for op := range d.PhysLinks {
		d.PhysLinks[op] = 64
		d.VirtLinks[op] = 512
	}
	return d
}

func testLayer() workload.Layer {
	return workload.Layer{Kind: workload.Conv, Name: "t", K: 64, C: 32, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Mult: 1}
}

// sequentialMapping places everything at the DRAM level.
func sequentialMapping(l workload.Layer) mapping.Mapping {
	dims := mapping.Dims(l)
	var m mapping.Mapping
	for d := mapping.Dim(0); d < mapping.NumDims; d++ {
		for lv := mapping.Level(0); lv < mapping.NumLevels; lv++ {
			m.F[d][lv] = 1
		}
		m.F[d][mapping.LvlDRAM] = dims[d]
	}
	return m
}

func TestSequentialMappingValid(t *testing.T) {
	l := testLayer()
	b := NewContext(testDesign(), l).Evaluate(sequentialMapping(l))
	if !b.Valid {
		t.Fatalf("sequential mapping invalid: %s", b.Incompat)
	}
	if b.PEsUsed != 1 {
		t.Fatalf("PEs used = %d, want 1", b.PEsUsed)
	}
	dims := mapping.Dims(l)
	wantMACs := float64(dims[0] * dims[1] * dims[2] * dims[3] * dims[4] * dims[5])
	if b.MACs != wantMACs {
		t.Fatalf("MACs = %v, want %v", b.MACs, wantMACs)
	}
	if b.TComp != wantMACs {
		t.Fatalf("TComp = %v, want %v (1 PE)", b.TComp, wantMACs)
	}
}

func TestLatencyIsMaxOfFactors(t *testing.T) {
	l := testLayer()
	d := testDesign()
	b := NewContext(d, l).Evaluate(mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes()))
	if !b.Valid {
		t.Fatalf("invalid: %s", b.Incompat)
	}
	maxF := b.TComp
	for _, op := range arch.Operands {
		if b.TNoC[op] > maxF {
			maxF = b.TNoC[op]
		}
	}
	if b.TDMA > maxF {
		maxF = b.TDMA
	}
	if b.Cycles != maxF {
		t.Fatalf("Cycles = %v, max factor = %v", b.Cycles, maxF)
	}
}

func TestTDMAIsSumOfOperands(t *testing.T) {
	l := testLayer()
	d := testDesign()
	b := NewContext(d, l).Evaluate(sequentialMapping(l))
	sum := 0.0
	for _, op := range arch.Operands {
		sum += b.TDMAOp[op]
	}
	if diff := b.TDMA - sum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("TDMA %v != sum of operands %v", b.TDMA, sum)
	}
}

func TestMorePEsReduceTComp(t *testing.T) {
	l := testLayer()
	d := testDesign()
	m := sequentialMapping(l)
	seq := NewContext(d, l).Evaluate(m)

	dims := mapping.Dims(l)
	m.F[mapping.DimK][mapping.LvlSpatial] = 16
	m.F[mapping.DimK][mapping.LvlDRAM] = dims[mapping.DimK] / 16
	par := NewContext(d, l).Evaluate(m)
	if !par.Valid {
		t.Fatalf("parallel mapping invalid: %s", par.Incompat)
	}
	if par.TComp*15 > seq.TComp {
		t.Fatalf("16x spatial K should cut TComp ~16x: %v -> %v", seq.TComp, par.TComp)
	}
}

func TestMoreBandwidthReducesTDMA(t *testing.T) {
	l := testLayer()
	m := sequentialMapping(l)
	d := testDesign()
	slow := NewContext(d, l).Evaluate(m)
	d.OffchipMBps *= 4
	fast := NewContext(d, l).Evaluate(m)
	if fast.TDMA >= slow.TDMA {
		t.Fatalf("4x bandwidth did not reduce TDMA: %v -> %v", slow.TDMA, fast.TDMA)
	}
}

func TestWiderNoCReducesTNoC(t *testing.T) {
	l := testLayer()
	d := testDesign()
	m := mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes())
	narrow := NewContext(d, l).Evaluate(m)
	d2 := d
	d2.NoCWidthBits = 256
	wide := NewContext(d2, l).Evaluate(m)
	for _, op := range arch.Operands {
		if wide.TNoC[op] > narrow.TNoC[op] {
			t.Fatalf("wider NoC increased %v time: %v -> %v", op, narrow.TNoC[op], wide.TNoC[op])
		}
	}
}

func TestVirtualUnicastIncompatibility(t *testing.T) {
	l := testLayer()
	d := testDesign()
	for op := range d.PhysLinks {
		d.PhysLinks[op] = 1
		d.VirtLinks[op] = 1
	}
	dims := mapping.Dims(l)
	m := sequentialMapping(l)
	m.F[mapping.DimK][mapping.LvlSpatial] = 16
	m.F[mapping.DimK][mapping.LvlDRAM] = dims[mapping.DimK] / 16
	b := NewContext(d, l).Evaluate(m)
	if b.Valid {
		t.Fatal("16 groups over 1 physical x 1 virtual link must be incompatible")
	}
	if b.IncompatCount < 1 {
		t.Fatal("incompatibilities not counted")
	}
	// W, Ord, Owr all need 16-way sharing (K indexes all of them).
	if b.IncompatCount < 3 {
		t.Fatalf("IncompatCount = %d, want >= 3 (W, Ord, Owr)", b.IncompatCount)
	}
}

func TestBufferOverflowInvalid(t *testing.T) {
	l := testLayer()
	d := testDesign()
	d.L1Bytes = 2 // 1 element: three tensors cannot fit
	b := NewContext(d, l).Evaluate(sequentialMapping(l))
	if b.Valid {
		t.Fatal("RF overflow must be invalid")
	}
}

func TestRFOverflowDetected(t *testing.T) {
	l := testLayer()
	d := testDesign()
	m := sequentialMapping(l)
	dims := mapping.Dims(l)
	m.F[mapping.DimC][mapping.LvlRF] = dims[mapping.DimC]
	m.F[mapping.DimC][mapping.LvlDRAM] = 1
	m.F[mapping.DimR][mapping.LvlRF] = dims[mapping.DimR]
	m.F[mapping.DimR][mapping.LvlDRAM] = 1
	m.F[mapping.DimS][mapping.LvlRF] = dims[mapping.DimS]
	m.F[mapping.DimS][mapping.LvlDRAM] = 1
	d.L1Bytes = 64
	b := NewContext(d, l).Evaluate(m)
	if b.Valid {
		t.Fatal("32*3*3 weights cannot fit 64B RF")
	}
}

func TestOffchipTrafficAtLeastTensorSizes(t *testing.T) {
	// Off-chip traffic per operand is at least the (padded) tensor size:
	// everything must be fetched at least once and outputs written once.
	l := testLayer()
	d := testDesign()
	dims := mapping.Dims(l)
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 500 && checked < 50; i++ {
		m := mapping.Random(dims, rng)
		b := NewContext(d, l).Evaluate(m)
		if !b.Valid {
			continue
		}
		checked++
		wBytes := float64(mapping.PaddedTensorElems(l, dims, mapping.TW)) * workload.BytesPerElem
		oBytes := float64(mapping.PaddedTensorElems(l, dims, mapping.TO)) * workload.BytesPerElem
		if b.DataOffchip[arch.OpW] < wBytes {
			t.Fatalf("W traffic %v < tensor %v", b.DataOffchip[arch.OpW], wBytes)
		}
		if b.DataOffchip[arch.OpOWr] < oBytes {
			t.Fatalf("Owr traffic %v < tensor %v", b.DataOffchip[arch.OpOWr], oBytes)
		}
		if b.DataOffchip[arch.OpORd] < 0 {
			t.Fatalf("negative Ord traffic")
		}
	}
	if checked < 10 {
		t.Fatalf("only %d valid mappings sampled", checked)
	}
}

func TestNoCTrafficAtLeastOffchip(t *testing.T) {
	// Data entering from DRAM also crosses the NoC at least once for the
	// streamed operands (W, I).
	l := testLayer()
	d := testDesign()
	dims := mapping.Dims(l)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		m := mapping.Random(dims, rng)
		b := NewContext(d, l).Evaluate(m)
		if !b.Valid {
			continue
		}
		for _, op := range []arch.Operand{arch.OpW, arch.OpI} {
			if b.DataNoC[op]+1e-9 < b.DataOffchip[op] {
				t.Fatalf("%v: NoC traffic %v < off-chip %v (mapping %v)", op, b.DataNoC[op], b.DataOffchip[op], m)
			}
		}
	}
}

func TestOutputStationaryAvoidsPsumSpill(t *testing.T) {
	l := testLayer()
	d := testDesign()
	m := sequentialMapping(l)
	m.DRAMStationary = mapping.TO
	m.NoCStationary = mapping.TO
	b := NewContext(d, l).Evaluate(m)
	if b.DataOffchip[arch.OpORd] != 0 {
		t.Fatalf("output-stationary psum reads = %v, want 0", b.DataOffchip[arch.OpORd])
	}
	// Weight-stationary with split reduction spills partial sums.
	m.DRAMStationary = mapping.TW
	b2 := NewContext(d, l).Evaluate(m)
	if b2.DataOffchip[arch.OpORd] <= 0 {
		t.Fatal("weight-stationary with DRAM-level reduction must spill psums")
	}
}

func TestDeterminismProperty(t *testing.T) {
	l := testLayer()
	d := testDesign()
	dims := mapping.Dims(l)
	rng := rand.New(rand.NewSource(17))
	f := func(uint8) bool {
		m := mapping.Random(dims, rng)
		a, b := NewContext(d, l).Evaluate(m), NewContext(d, l).Evaluate(m)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesAndValidMatchEvaluate(t *testing.T) {
	l := testLayer()
	d := testDesign()
	m := sequentialMapping(l)
	ctx := NewContext(d, l)
	var c [1]float64
	ctx.EvaluateFill(&m, []mapping.Mapping{m}, c[:])
	b := ctx.Evaluate(m)
	if !b.Valid || c[0] != b.Cycles {
		t.Fatal("EvaluateFill disagrees with Evaluate")
	}
	if !ctx.Valid(&m) {
		t.Fatal("Valid disagrees")
	}
}

func TestMaxTNoC(t *testing.T) {
	b := Breakdown{}
	b.TNoC[arch.OpI] = 5
	b.TNoC[arch.OpOWr] = 9
	op, v := b.MaxTNoC()
	if op != arch.OpOWr || v != 9 {
		t.Fatalf("MaxTNoC = %v %v", op, v)
	}
}

func TestGEMMAndDepthwiseEvaluate(t *testing.T) {
	d := testDesign()
	layers := []workload.Layer{
		{Kind: workload.Gemm, Name: "g", K: 1000, C: 512, Y: 1, X: 1, R: 1, S: 1, Stride: 1, Mult: 1},
		{Kind: workload.DWConv, Name: "dw", K: 96, C: 1, Y: 56, X: 56, R: 3, S: 3, Stride: 1, Mult: 1},
	}
	for _, l := range layers {
		b := NewContext(d, l).Evaluate(sequentialMapping(l))
		if !b.Valid {
			t.Fatalf("%s: %s", l.Name, b.Incompat)
		}
		if b.Cycles <= 0 {
			t.Fatalf("%s: non-positive cycles", l.Name)
		}
	}
}
