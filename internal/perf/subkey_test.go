package perf

import (
	"math/rand"
	"reflect"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// TestMappingSubKeyCoversDesign is the guard behind the layer-cache sub-key
// derivation rule (docs/EXTENDING.md): every field of arch.Design must be
// explicitly classified here as either folded into MappingSubKey or proven
// irrelevant to the cost model. Adding a field to arch.Design without
// classifying it fails this test, which is the point — an unclassified field
// read by the cost model would silently poison the layer-grain mapping cache.
func TestMappingSubKeyCoversDesign(t *testing.T) {
	// Fields whose values are folded into the sub-key directly.
	keyed := map[string]bool{
		"PEs": true, "L1Bytes": true, "L2KB": true,
		"NoCWidthBits": true, "PhysLinks": true, "VirtLinks": true,
	}
	// Fields the cost model consumes only through BytesPerCycle; the sub-key
	// captures their gcd-reduced ratio rather than the raw values.
	ratio := map[string]bool{"OffchipMBps": true, "FreqMHz": true}

	typ := reflect.TypeOf(arch.Design{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !keyed[name] && !ratio[name] {
			t.Errorf("arch.Design field %q is not classified for MappingSubKey; "+
				"if perf.NewContext reads it, fold it into the key, otherwise list it here as irrelevant", name)
		}
	}
}

// TestMappingSubKeyRatio checks the bandwidth/frequency pair only enters the
// key as a ratio: scaling both leaves the key unchanged, scaling one does
// not.
func TestMappingSubKeyRatio(t *testing.T) {
	d := testDesign()
	scaled := d
	scaled.OffchipMBps *= 3
	scaled.FreqMHz *= 3
	if MappingSubKey(d) != MappingSubKey(scaled) {
		t.Fatalf("same bytes/cycle ratio produced different sub-keys:\n%s\n%s",
			MappingSubKey(d), MappingSubKey(scaled))
	}
	faster := d
	faster.OffchipMBps *= 2
	if MappingSubKey(d) == MappingSubKey(faster) {
		t.Fatalf("different bandwidth collapsed to one sub-key: %s", MappingSubKey(d))
	}
}

// TestMappingSubKeyDistinguishes perturbs every keyed parameter and checks
// the key moves.
func TestMappingSubKeyDistinguishes(t *testing.T) {
	base := testDesign()
	perturb := map[string]func(*arch.Design){
		"PEs":          func(d *arch.Design) { d.PEs *= 2 },
		"L1Bytes":      func(d *arch.Design) { d.L1Bytes *= 2 },
		"L2KB":         func(d *arch.Design) { d.L2KB *= 2 },
		"NoCWidthBits": func(d *arch.Design) { d.NoCWidthBits *= 2 },
		"PhysLinks":    func(d *arch.Design) { d.PhysLinks[arch.OpI] /= 2 },
		"VirtLinks":    func(d *arch.Design) { d.VirtLinks[arch.OpOWr] /= 2 },
	}
	for name, fn := range perturb {
		d := base
		fn(&d)
		if MappingSubKey(d) == MappingSubKey(base) {
			t.Errorf("perturbing %s did not change the sub-key", name)
		}
	}
}

// TestMappingSubKeySoundness is the semantic property behind the cache: two
// designs with equal sub-keys must produce identical breakdowns for every
// (layer, mapping) pair. Exercised with random mappings on a design pair
// that differs in raw frequency/bandwidth but shares the ratio.
func TestMappingSubKeySoundness(t *testing.T) {
	a := testDesign()
	b := a
	b.OffchipMBps *= 4
	b.FreqMHz *= 4
	if MappingSubKey(a) != MappingSubKey(b) {
		t.Fatal("test premise broken: designs should share a sub-key")
	}
	l := testLayer()
	dims := mapping.Dims(l)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		m := mapping.Random(dims, rng)
		ba, bb := NewContext(a, l).Evaluate(m), NewContext(b, l).Evaluate(m)
		if ba != bb {
			t.Fatalf("equal sub-keys but different breakdowns for mapping %v", m)
		}
	}
}

// TestCostLowerBound checks the bound certificate: for random mappings the
// reported cycles never fall below the bound at the mapping's spatial
// occupancy.
func TestCostLowerBound(t *testing.T) {
	d := testDesign()
	l := testLayer()
	ctx := NewContext(d, l)
	lb := ctx.CostLowerBound
	dims := mapping.Dims(l)
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for i := 0; i < 500; i++ {
		m := mapping.Random(dims, rng)
		b := ctx.Evaluate(m)
		if !b.Valid {
			continue
		}
		checked++
		if b.Cycles < lb(m.SpatialPEs()) {
			t.Fatalf("cycles %v below certified bound %v (PEs %d)", b.Cycles, lb(m.SpatialPEs()), m.SpatialPEs())
		}
	}
	if checked == 0 {
		t.Fatal("no valid mapping sampled; bound never exercised")
	}
	// The bound must also hold for a GEMM layer (different padded dims).
	g := workload.Layer{Kind: workload.Gemm, Name: "g", K: 128, C: 256, Y: 1, X: 1, R: 1, S: 1, Stride: 1, Mult: 1}
	gctx := NewContext(d, g)
	glb := gctx.CostLowerBound
	gm := sequentialMapping(g)
	if b := gctx.Evaluate(gm); b.Valid && b.Cycles < glb(1) {
		t.Fatalf("GEMM cycles %v below bound %v", b.Cycles, glb(1))
	}
}
