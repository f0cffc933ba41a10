package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xdse/internal/workload"
)

func TestSmooth(t *testing.T) {
	cases := map[int]int{
		1: 1, 2: 2, 3: 3, 7: 7, 11: 12, 13: 14, 197: 200,
		1000: 1000, 1009: 1024, 25088: 25088,
	}
	for n, want := range cases {
		if got := Smooth(n); got != want {
			t.Errorf("Smooth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSmoothProperties(t *testing.T) {
	f := func(n uint16) bool {
		v := int(n)%40000 + 1
		s := Smooth(v)
		if s < v {
			return false
		}
		// 7-smooth: only prime factors 2,3,5,7.
		for _, p := range []int{2, 3, 5, 7} {
			for s%p == 0 {
				s /= p
			}
		}
		return s == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("Divisors(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Divisors(12) = %v", got)
		}
	}
	if ds := Divisors(0); len(ds) != 1 || ds[0] != 1 {
		t.Fatalf("Divisors(0) = %v", ds)
	}
}

func TestRandomSplit4ProductProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint16) bool {
		v := Smooth(int(n)%5000 + 1)
		sp := RandomSplit4(v, rng)
		return sp[0]*sp[1]*sp[2]*sp[3] == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNumSplits4MatchesEnumeration(t *testing.T) {
	count := func(n int) int {
		c := 0
		for _, a := range Divisors(n) {
			for _, b := range Divisors(n / a) {
				c += len(Divisors(n / a / b))
			}
		}
		return c
	}
	for _, n := range []int{1, 2, 6, 12, 60, 64, 210, 1024} {
		if got, want := NumSplits4(n), float64(count(n)); got != want {
			t.Errorf("NumSplits4(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestDimsPadding(t *testing.T) {
	l := workload.Layer{Kind: workload.Conv, K: 1000, C: 3, Y: 197, X: 197, R: 3, S: 3, Stride: 1}
	d := Dims(l)
	if d[DimK] != 1000 || d[DimY] != 200 {
		t.Fatalf("dims = %v", d)
	}
	dwl := workload.Layer{Kind: workload.DWConv, K: 32, C: 32, Y: 8, X: 8, R: 3, S: 3, Stride: 1}
	if got := Dims(dwl)[DimC]; got != 1 {
		t.Fatalf("depthwise C dim = %d, want 1", got)
	}
}

func TestTensorDims(t *testing.T) {
	// Output never depends on reduction dims.
	for _, k := range []workload.Kind{workload.Conv, workload.DWConv, workload.Gemm} {
		for _, d := range ReductionDims(k) {
			if Indexes(k, TO, d) {
				t.Errorf("kind %v: output indexed by reduction dim %v", k, d)
			}
		}
	}
	// Depthwise inputs are indexed by K, not C.
	if !Indexes(workload.DWConv, TI, DimK) || Indexes(workload.DWConv, TI, DimC) {
		t.Fatal("depthwise input dims wrong")
	}
	// Weights never depend on output spatial position.
	for _, k := range []workload.Kind{workload.Conv, workload.DWConv, workload.Gemm} {
		if Indexes(k, TW, DimY) || Indexes(k, TW, DimX) {
			t.Errorf("kind %v: weights indexed by output position", k)
		}
	}
}

func TestMappingAccessors(t *testing.T) {
	var m Mapping
	if m.Factor(DimK, LvlRF) != 1 {
		t.Fatal("zero mapping factors must read as 1")
	}
	m.F[DimK][LvlSpatial] = 4
	m.F[DimK][LvlRF] = 2
	m.F[DimK][LvlL2] = 8
	if got := m.TileThrough(DimK, LvlL2); got != 64 {
		t.Fatalf("TileThrough = %d, want 64", got)
	}
	if got := m.SpatialPEs(); got != 4 {
		t.Fatalf("SpatialPEs = %d, want 4", got)
	}
	if got := m.LevelProduct(LvlRF); got != 2 {
		t.Fatalf("LevelProduct = %d, want 2", got)
	}
}

func TestTileArithmetic(t *testing.T) {
	l := workload.Layer{Kind: workload.Conv, K: 8, C: 4, Y: 6, X: 6, R: 3, S: 3, Stride: 1, Mult: 1}
	var m Mapping
	for d := Dim(0); d < NumDims; d++ {
		for lv := Level(0); lv < NumLevels; lv++ {
			m.F[d][lv] = 1
		}
	}
	m.F[DimK][LvlRF] = 2
	m.F[DimC][LvlRF] = 4
	m.F[DimR][LvlRF] = 3
	m.F[DimS][LvlRF] = 3
	// Per-PE RF tile: W = 2*4*3*3 = 72 elems; I = 4*3*3 = 36 (1x1 out,
	// 3x3 halo); O = 2.
	if got := RFTileElems(&l, &m, TW); got != 72 {
		t.Fatalf("W RF tile = %d, want 72", got)
	}
	if got := RFTileElems(&l, &m, TI); got != 36 {
		t.Fatalf("I RF tile = %d, want 36", got)
	}
	if got := RFTileElems(&l, &m, TO); got != 2 {
		t.Fatalf("O RF tile = %d, want 2", got)
	}
	if got := RFTileBytes(&l, &m); got != (72+36+2)*workload.BytesPerElem {
		t.Fatalf("RF bytes = %d", got)
	}
}

func TestL2TileIncludesSpatial(t *testing.T) {
	l := workload.Layer{Kind: workload.Conv, K: 8, C: 4, Y: 6, X: 6, R: 3, S: 3, Stride: 1, Mult: 1}
	var m Mapping
	for d := Dim(0); d < NumDims; d++ {
		for lv := Level(0); lv < NumLevels; lv++ {
			m.F[d][lv] = 1
		}
	}
	m.F[DimY][LvlSpatial] = 2
	m.F[DimY][LvlL2] = 3
	// O tile through L2: K=1, Y=6, X=1.
	if got := L2TileElems(&l, &m, TO); got != 6 {
		t.Fatalf("O L2 tile = %d, want 6", got)
	}
}

func TestPaddedTensorElems(t *testing.T) {
	l := workload.Layer{Kind: workload.Gemm, K: 100, C: 50, Y: 1, X: 7, R: 1, S: 1, Stride: 1}
	dims := Dims(l)
	if got := PaddedTensorElems(l, dims, TW); got != int64(dims[DimK])*int64(dims[DimC]) {
		t.Fatalf("padded W = %d", got)
	}
}
