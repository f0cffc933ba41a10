package perf

import (
	"testing"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// Edge-case coverage: prime-sized dimensions (smooth padding), 1-D
// convolutions, large GEMMs, and the burst-overhead model.

func TestPrimeDimensionsPadAndEvaluate(t *testing.T) {
	// ViT's sequence length 197 and wav2vec2's 551 frames are prime-ish;
	// the padded model must still evaluate consistently.
	d := testDesign()
	layers := []workload.Layer{
		{Kind: workload.Gemm, Name: "vit", K: 197, C: 768, Y: 1, X: 197, R: 1, S: 1, Stride: 1, Mult: 1},
		{Kind: workload.Gemm, Name: "w2v", K: 551, C: 768, Y: 1, X: 551, R: 1, S: 1, Stride: 1, Mult: 1},
	}
	for _, l := range layers {
		dims := mapping.Dims(l)
		for _, dim := range dims {
			if mapping.Smooth(dim) != dim {
				t.Fatalf("%s: dim %d not smooth after padding", l.Name, dim)
			}
		}
		b := NewContext(d, l).Evaluate(mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes()))
		if !b.Valid {
			t.Fatalf("%s: %s", l.Name, b.Incompat)
		}
		if b.MACs < float64(l.MACs()) {
			t.Fatalf("%s: padded MACs %v < real %d", l.Name, b.MACs, l.MACs())
		}
		// Padding waste is bounded (7-smooth numbers are dense).
		if b.MACs > 1.6*float64(l.MACs()) {
			t.Fatalf("%s: padding waste too high: %v vs %d", l.Name, b.MACs, l.MACs())
		}
	}
}

func TestOneDConvolution(t *testing.T) {
	// wav2vec2 feature extractor: 1-D conv with the time axis on X.
	l := workload.Layer{Kind: workload.Conv, Name: "feat", K: 512, C: 512, Y: 1, X: 551, R: 1, S: 3, Stride: 2, Mult: 1}
	d := testDesign()
	b := NewContext(d, l).Evaluate(mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes()))
	if !b.Valid {
		t.Fatal(b.Incompat)
	}
	if b.Cycles <= 0 {
		t.Fatal("non-positive latency")
	}
}

func TestBurstOverheadShrinksWithLargerTiles(t *testing.T) {
	// Larger contiguous L2 tiles mean fewer DMA bursts and lower
	// fixed overhead — the dMazeRunner non-contiguous-access effect.
	l := testLayer()
	d := testDesign()
	dims := mapping.Dims(l)

	small := sequentialMapping(l)
	big := sequentialMapping(l)
	big.F[mapping.DimX][mapping.LvlL2] = dims[mapping.DimX]
	big.F[mapping.DimX][mapping.LvlDRAM] = 1

	bs := NewContext(d, l).Evaluate(small)
	bb := NewContext(d, l).Evaluate(big)
	if !bs.Valid || !bb.Valid {
		t.Fatal("mappings invalid")
	}
	// Same off-chip volume for the input, strictly less DMA time with
	// the contiguous tile.
	if bb.TDMAOp[arch.OpI] >= bs.TDMAOp[arch.OpI] {
		t.Fatalf("contiguous tiles did not reduce I DMA time: %v vs %v",
			bb.TDMAOp[arch.OpI], bs.TDMAOp[arch.OpI])
	}
}

func TestGEMMNoCGroupsFollowSpatialSplit(t *testing.T) {
	l := workload.Layer{Kind: workload.Gemm, Name: "g", K: 64, C: 64, Y: 1, X: 8, R: 1, S: 1, Stride: 1, Mult: 1}
	d := testDesign()
	m := sequentialMapping(l)
	dims := mapping.Dims(l)
	m.F[mapping.DimK][mapping.LvlSpatial] = 8
	m.F[mapping.DimK][mapping.LvlDRAM] = dims[mapping.DimK] / 8
	m.F[mapping.DimX][mapping.LvlSpatial] = 4
	m.F[mapping.DimX][mapping.LvlDRAM] = dims[mapping.DimX] / 4
	b := NewContext(d, l).Evaluate(m)
	if !b.Valid {
		t.Fatal(b.Incompat)
	}
	// W indexed by K,C: 8 groups. I indexed by C,X: 4 groups. O: 32.
	if b.NoCGroups[arch.OpW] != 8 {
		t.Fatalf("W groups = %d, want 8", b.NoCGroups[arch.OpW])
	}
	if b.NoCGroups[arch.OpI] != 4 {
		t.Fatalf("I groups = %d, want 4", b.NoCGroups[arch.OpI])
	}
	if b.NoCGroups[arch.OpOWr] != 32 {
		t.Fatalf("O groups = %d, want 32", b.NoCGroups[arch.OpOWr])
	}
}

func TestDepthwiseGroupsUseK(t *testing.T) {
	l := workload.Layer{Kind: workload.DWConv, Name: "dw", K: 32, C: 1, Y: 8, X: 8, R: 3, S: 3, Stride: 1, Mult: 1}
	d := testDesign()
	m := sequentialMapping(l)
	m.F[mapping.DimK][mapping.LvlSpatial] = 4
	m.F[mapping.DimK][mapping.LvlDRAM] = mapping.Dims(l)[mapping.DimK] / 4
	b := NewContext(d, l).Evaluate(m)
	if !b.Valid {
		t.Fatal(b.Incompat)
	}
	// Depthwise inputs are indexed by K, so the I NoC also sees 4 groups.
	if b.NoCGroups[arch.OpI] != 4 {
		t.Fatalf("depthwise I groups = %d, want 4", b.NoCGroups[arch.OpI])
	}
}

func TestStationaryTensorReducesItsTraffic(t *testing.T) {
	l := testLayer()
	d := testDesign()
	dims := mapping.Dims(l)
	m := sequentialMapping(l)
	// Split the DRAM level so refetch factors exist.
	m.F[mapping.DimK][mapping.LvlL2] = 4
	m.F[mapping.DimK][mapping.LvlDRAM] = dims[mapping.DimK] / 4

	m.DRAMStationary = mapping.TI
	wi := NewContext(d, l).Evaluate(m)
	m.DRAMStationary = mapping.TW
	ww := NewContext(d, l).Evaluate(m)
	if !wi.Valid || !ww.Valid {
		t.Fatal("invalid")
	}
	// K splits at DRAM don't index I, so I is refetched unless
	// stationary; W is indexed by K so its traffic is identical.
	if wi.DataOffchip[arch.OpI] > ww.DataOffchip[arch.OpI] {
		t.Fatalf("I-stationary increased I traffic: %v vs %v",
			wi.DataOffchip[arch.OpI], ww.DataOffchip[arch.OpI])
	}
}
