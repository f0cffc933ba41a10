package arch

import (
	"slices"
	"strings"
	"testing"
)

// TestParseSpaceMatchesEdgeSpace: a fresh parse of EdgeSpaceSpec equals
// what EdgeSpace hands out, and both carry Table 1's value lists, written
// out here independently of the specification language.
func TestParseSpaceMatchesEdgeSpace(t *testing.T) {
	parsed, err := ParseSpace(EdgeSpaceSpec)
	if err != nil {
		t.Fatal(err)
	}
	seq := func(lo, hi, step int) []int {
		var vs []int
		for v := lo; v <= hi; v += step {
			vs = append(vs, v)
		}
		return vs
	}
	table1 := map[int][]int{
		PPEs:      {64, 128, 256, 512, 1024, 2048, 4096},
		PL1:       {8, 16, 32, 64, 128, 256, 512, 1024},
		PL2:       {64, 128, 256, 512, 1024, 2048, 4096},
		PBW:       {1024, 2048, 4096, 6400, 8192, 12800, 19200, 25600, 38400, 51200},
		PNoCWidth: seq(16, 256, 16),
	}
	for op := 0; op < NumOperands; op++ {
		table1[PPhys0+op] = seq(1, 64, 1)
		table1[PVirt0+op] = []int{1, 8, 64, 512} // 2^(3i), i in [0,3]
	}
	want := EdgeSpace()
	if parsed.FreqMHz != want.FreqMHz {
		t.Fatalf("freq = %d, want %d", parsed.FreqMHz, want.FreqMHz)
	}
	if len(parsed.Params) != len(want.Params) || len(want.Params) != len(table1) {
		t.Fatalf("params = %d parsed, %d from EdgeSpace, want %d", len(parsed.Params), len(want.Params), len(table1))
	}
	for i := range want.Params {
		pw, pp := want.Params[i], parsed.Params[i]
		if pw.Name != pp.Name || pw.Kind != pp.Kind || pw.Base != pp.Base {
			t.Fatalf("param %d header mismatch: %+v vs %+v", i, pp, pw)
		}
		if !slices.Equal(pp.Values, pw.Values) {
			t.Fatalf("param %s values = %v, EdgeSpace has %v", pw.Name, pp.Values, pw.Values)
		}
		if !slices.Equal(pp.Values, table1[i]) {
			t.Fatalf("param %s values = %v, Table 1 has %v", pw.Name, pp.Values, table1[i])
		}
	}
	if parsed.Size().Cmp(want.Size()) != 0 {
		t.Fatal("space sizes differ")
	}
}

func TestParseSpaceForms(t *testing.T) {
	s, err := ParseSpace(`
# comment line
freq 100
param a list 1 2 3      # trailing comment
param b range 2 16 mul 2
param c range 10 30 step 10
param d perel 1 4 step 1 base 4
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Params[1].Values; len(got) != 4 || got[3] != 16 {
		t.Fatalf("mul range = %v", got)
	}
	if got := s.Params[2].Values; len(got) != 3 || got[2] != 30 {
		t.Fatalf("step range = %v", got)
	}
	if s.Params[3].Kind != KindPERelative || s.Params[3].Base != 4 {
		t.Fatalf("perel param = %+v", s.Params[3])
	}
}

func TestParseSpaceErrors(t *testing.T) {
	cases := map[string]string{
		"no params":         "freq 100\n",
		"no freq":           "param a list 1 2\n",
		"bad directive":     "freq 100\nwhatever a b\n",
		"bad freq":          "freq zero\nparam a list 1\n",
		"dup param":         "freq 1\nparam a list 1\nparam a list 2\n",
		"bad list value":    "freq 1\nparam a list 1 x\n",
		"bad range kind":    "freq 1\nparam a range 1 8 pow 2\n",
		"bad mul":           "freq 1\nparam a range 1 8 mul 1\n",
		"bad step":          "freq 1\nparam a range 1 8 step 0\n",
		"perel sans base":   "freq 1\nparam a perel 1 8 step 1\n",
		"descending values": "freq 1\nparam a list 3 2 1\n",
		"reversed range":    "freq 1\nparam a range 9 2 step 1\n",
	}
	for name, spec := range cases {
		if _, err := ParseSpace(spec); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseSpaceErrorCarriesLine(t *testing.T) {
	_, err := ParseSpace("freq 100\nparam ok list 1\nparam bad range 1 2\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error without line number: %v", err)
	}
}
