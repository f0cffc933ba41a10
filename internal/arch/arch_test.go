package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEdgeSpaceShape pins the Table 1 space EdgeSpaceSpec defines: each
// canonical index names its parameter, with the paper's cardinality, and
// every EdgeSpace call is a copy its caller may rewrite.
func TestEdgeSpaceShape(t *testing.T) {
	s := EdgeSpace()
	if got := len(s.Params); got != NumParams {
		t.Fatalf("params = %d, want %d", got, NumParams)
	}
	if s.FreqMHz != 500 {
		t.Fatalf("freq = %d MHz, want 500", s.FreqMHz)
	}
	type want struct {
		name    string
		options int
		kind    ParamKind
		base    int
	}
	wants := map[int]want{
		PPEs:      {"PEs", 7, KindAbsolute, 0},
		PL1:       {"L1_bytes", 8, KindAbsolute, 0},
		PL2:       {"L2_KB", 7, KindAbsolute, 0},
		PBW:       {"offchip_MBps", 10, KindAbsolute, 0},
		PNoCWidth: {"noc_width_bits", 16, KindAbsolute, 0},
	}
	for op := Operand(0); op < NumOperands; op++ {
		wants[PPhys0+int(op)] = want{"phys_unicast_" + op.String(), 64, KindPERelative, 64}
		wants[PVirt0+int(op)] = want{"virt_unicast_" + op.String(), 4, KindAbsolute, 0}
	}
	for idx, w := range wants {
		p := s.Params[idx]
		if p.Name != w.name || p.Options() != w.options || p.Kind != w.kind || p.Base != w.base {
			t.Errorf("param %d = %s (%d options, kind %v, base %d), want %s (%d, %v, %d)",
				idx, p.Name, p.Options(), p.Kind, p.Base, w.name, w.options, w.kind, w.base)
		}
	}

	s.Params[PL1].Values[0] = -1
	s.Params[PBW].Values = []int{1}
	if again := EdgeSpace(); again.Params[PL1].Values[0] != 8 || again.Params[PBW].Options() != 10 {
		t.Fatal("rewriting one EdgeSpace changed the next")
	}
}

func TestEdgeSpaceSize(t *testing.T) {
	// 7*8*7*10*16 * 64^4 * 4^4 = 269,380,348,805,120 — the "vast space"
	// scale of Table 1.
	if got := EdgeSpace().Size().String(); got != "269380348805120" {
		t.Fatalf("space size = %s", got)
	}
}

func TestDecodeInitial(t *testing.T) {
	s := EdgeSpace()
	d := s.MustDecode(s.Initial())
	if d.PEs != 64 || d.L1Bytes != 8 || d.L2KB != 64 || d.OffchipMBps != 1024 || d.NoCWidthBits != 16 {
		t.Fatalf("initial design = %v", d)
	}
	if d.FreqMHz != 500 {
		t.Fatalf("freq = %d, want 500", d.FreqMHz)
	}
	for op := 0; op < NumOperands; op++ {
		if d.PhysLinks[op] != 1 { // 64*1/64
			t.Errorf("initial phys links = %d, want 1", d.PhysLinks[op])
		}
		if d.VirtLinks[op] != 1 {
			t.Errorf("initial virt links = %d, want 1", d.VirtLinks[op])
		}
	}
	if err := d.Valid(); err != nil {
		t.Fatalf("initial design invalid: %v", err)
	}
}

func TestDecodePERelativeLinks(t *testing.T) {
	s := EdgeSpace()
	pt := s.Initial()
	pt[PPEs] = 3 // 512 PEs
	pt[PPhys0] = 15
	d := s.MustDecode(pt)
	if d.PEs != 512 {
		t.Fatalf("PEs = %d", d.PEs)
	}
	if want := 512 * 16 / 64; d.PhysLinks[OpW] != want {
		t.Fatalf("links = %d, want %d", d.PhysLinks[OpW], want)
	}
}

func TestDecodeAllRandomValid(t *testing.T) {
	s := EdgeSpace()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		d := s.MustDecode(s.Random(rng))
		if err := d.Valid(); err != nil {
			t.Fatalf("random design invalid: %v", err)
		}
	}
}

func TestRoundUpIndexProperty(t *testing.T) {
	p := Param{Values: []int{64, 128, 256, 512, 1024, 2048, 4096}}
	f := func(want uint16) bool {
		v := int(want)
		idx := p.RoundUpIndex(v)
		val := p.Values[idx]
		if v <= 4096 && val < v {
			return false
		}
		// Smallest value >= v (or the largest value overall).
		if idx > 0 && p.Values[idx-1] >= v {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundDownIndexProperty(t *testing.T) {
	p := Param{Values: []int{8, 16, 32, 64, 128, 256, 512, 1024}}
	f := func(want uint16) bool {
		v := int(want)
		idx := p.RoundDownIndex(v)
		val := p.Values[idx]
		if v >= 8 && val > v {
			return false
		}
		if idx < len(p.Values)-1 && p.Values[idx+1] <= v {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundUpPhysical(t *testing.T) {
	s := EdgeSpace()
	// phys links = PEs*i/64; for 256 PEs, want 20 links -> i=5 gives 20.
	idx := s.RoundUpPhysical(PPhys0, 20, 256)
	if got := s.PhysicalValue(PPhys0, idx, 256); got < 20 {
		t.Fatalf("physical = %d < 20", got)
	}
	if idx > 0 {
		if prev := s.PhysicalValue(PPhys0, idx-1, 256); prev >= 20 {
			t.Fatalf("not minimal: prev=%d", prev)
		}
	}
}

func TestClamp(t *testing.T) {
	s := EdgeSpace()
	if got := s.Clamp(PPEs, -3); got != 0 {
		t.Fatalf("clamp(-3) = %d", got)
	}
	if got := s.Clamp(PPEs, 99); got != 6 {
		t.Fatalf("clamp(99) = %d", got)
	}
	if got := s.Clamp(PPEs, 4); got != 4 {
		t.Fatalf("clamp(4) = %d", got)
	}
}

func TestPointCloneEqualKey(t *testing.T) {
	s := EdgeSpace()
	rng := rand.New(rand.NewSource(1))
	a := s.Random(rng)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	if a.Key() != b.Key() {
		t.Fatal("keys differ")
	}
	b[0] = (b[0] + 1) % len(s.Params[0].Values)
	if a.Equal(b) {
		t.Fatal("mutated clone equal to original")
	}
	if a.Key() == b.Key() {
		t.Fatal("mutated clone key equal")
	}
}

func TestBytesPerCycle(t *testing.T) {
	d := Design{OffchipMBps: 51200, FreqMHz: 500}
	if got := d.BytesPerCycle(); got != 102.4 {
		t.Fatalf("bytes/cycle = %v", got)
	}
	if (Design{}).BytesPerCycle() != 0 {
		t.Fatal("zero design should have 0 bytes/cycle")
	}
}

func TestDesignValidRejects(t *testing.T) {
	s := EdgeSpace()
	d := s.MustDecode(s.Initial())
	d.PhysLinks[0] = d.PEs + 1
	if err := d.Valid(); err == nil {
		t.Fatal("links > PEs should be invalid")
	}
	d = s.MustDecode(s.Initial())
	d.L2KB = 0
	if err := d.Valid(); err == nil {
		t.Fatal("zero L2 should be invalid")
	}
}

func TestOperandString(t *testing.T) {
	want := map[Operand]string{OpW: "W", OpI: "I", OpORd: "Ord", OpOWr: "Owr"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("operand %d string = %s, want %s", op, op.String(), s)
		}
	}
}
