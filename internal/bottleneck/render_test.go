package bottleneck

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// renderFmt is the fmt-based renderer Render replaced, kept as its
// reference: Render must print the same bytes for every tree. Its shares
// come from contributionsRef, since Render shares its per-child rule with
// Contributions.
func renderFmt(root *Node) string {
	root.Eval()
	contrib := contributionsRef(root)
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), n.Name)
		if n.Op != Leaf {
			fmt.Fprintf(&b, " [%s]", n.Op)
		}
		fmt.Fprintf(&b, " = %.4g", n.Value)
		if c, ok := contrib[n]; ok {
			fmt.Fprintf(&b, " (%.1f%%)", c*100)
		}
		if len(n.Params) > 0 {
			fmt.Fprintf(&b, " params=%v", n.Params)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(root, 0)
	return b.String()
}

// specialValues are the leaf values a random tree draws besides ordinary
// magnitudes: signed zeros, infinities, NaN, subnormals, extremes and
// values that round at the fourth significant digit.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310,
	1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64,
	9.9995, 0.00012345, 123456789, 1.5, 0.05, 99.95, 1e21, 1e-7,
}

// randomValue draws a leaf value: a special value a third of the time,
// otherwise a signed magnitude spread over the whole float64 range.
func randomValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return specialValues[rng.Intn(len(specialValues))]
	}
	v := rng.Float64() * math.Pow(10, float64(rng.Intn(41)-20))
	if rng.Intn(50) == 0 {
		v = rng.Float64() * math.Pow(10, float64(rng.Intn(601)-300))
	}
	if rng.Intn(4) == 0 {
		v = -v
	}
	return v
}

// randomParams draws no parameters, a few, or a long list, some empty or
// carrying spaces and brackets.
func randomParams(rng *rand.Rand) []string {
	names := []string{"PEs", "L1_bytes", "", "a b", "[x]", "phys_unicast_Ord", "offchip_MBps"}
	n := rng.Intn(4)
	if rng.Intn(10) == 0 {
		n = 20 + rng.Intn(20)
	}
	if n == 0 {
		if rng.Intn(2) == 0 {
			return []string{} // empty but non-nil
		}
		return nil
	}
	ps := make([]string, n)
	for i := range ps {
		ps[i] = names[rng.Intn(len(names))]
	}
	return ps
}

// randomTree builds a tree of every Op, leaves with children included,
// whose interior nodes carry stale values until Eval runs. Nodes at the
// depth limit are leaves.
func randomTree(rng *rand.Rand, depth int) *Node {
	n := &Node{
		Name:   fmt.Sprintf("n%d", rng.Intn(1000)),
		Value:  randomValue(rng),
		Params: randomParams(rng),
	}
	if depth == 0 {
		return n
	}
	n.Op = Op(rng.Intn(int(MinOp) + 1))
	if n.Op == Leaf && rng.Intn(8) != 0 {
		return n
	}
	kids := 1 + rng.Intn(4)
	if n.Op == DivOp {
		kids = 1 + rng.Intn(2)
	}
	for range kids {
		n.Children = append(n.Children, randomTree(rng, depth-1))
	}
	return n
}

func TestRenderMatchesFmtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := range 10000 {
		root := randomTree(rng, 1+rng.Intn(4))
		want := renderFmt(root)
		if got := Render(root); got != want {
			t.Fatalf("tree %d:\n got:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestRenderMatchesFmtReferenceOnFig8(t *testing.T) {
	root := fig8Tree()
	if got, want := Render(root), renderFmt(root); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAppendTenthsMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := append([]float64(nil), specialValues...)
	for _, v := range []float64{0.5, 1.5, 2.5, 0.05, 0.15, 0.25, 0.125, 0.0625, 99.95, 99.96, 9.95,
		0.0005, 0.00049999999999999999, 1 << 53, 1 << 60, 1 << 63, 1 << 64, 1.8446744073709552e18, 1.8446744073709552e19,
		math.Nextafter(0.05, 0), math.Nextafter(0.05, 1), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1)} {
		vals = append(vals, v, -v)
	}
	for range 5000 {
		vals = append(vals, math.Float64frombits(rng.Uint64())) // every exponent
	}
	for range 100000 {
		vals = append(vals, float64(rng.Intn(2000000)-1000000)/2000) // multiples of 0.0005: tenths' ties among them
		vals = append(vals, rng.Float64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, v := range vals {
		want := strconv.FormatFloat(v, 'f', 1, 64)
		if got := string(appendTenths([]byte("x"), v)); got != "x"+want {
			t.Fatalf("appendTenths(%v (%#x)) = %q, want %q", v, math.Float64bits(v), got[1:], want)
		}
	}
}
