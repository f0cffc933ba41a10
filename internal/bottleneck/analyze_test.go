package bottleneck

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// contributionsRef is Contributions as it was written before it shared its
// per-child rule with Analyze and Render, kept as their reference.
func contributionsRef(root *Node) map[*Node]float64 {
	root.Eval()
	contrib := map[*Node]float64{root: 1}
	var rec func(n *Node)
	rec = func(n *Node) {
		cn := contrib[n]
		switch n.Op {
		case AddOp, MaxOp, MinOp:
			total := n.Value
			for _, c := range n.Children {
				if total != 0 {
					contrib[c] = cn * c.Value / total
				} else {
					contrib[c] = 0
				}
				rec(c)
			}
		case MulOp, DivOp:
			for _, c := range n.Children {
				contrib[c] = cn
				rec(c)
			}
		}
	}
	rec(root)
	return contrib
}

// analyzeMap is the Analyze that ranked the root's children through the
// whole-tree Contributions map, kept as its reference: Analyze must return
// the same bottlenecks for every tree.
func analyzeMap(root *Node, n int) []Bottleneck {
	root.Eval()
	contrib := contributionsRef(root)
	if len(root.Children) == 0 || n <= 0 {
		return nil
	}

	factors := append([]*Node(nil), root.Children...)
	sort.SliceStable(factors, func(i, j int) bool {
		return contrib[factors[i]] > contrib[factors[j]]
	})
	if n > len(factors) {
		n = len(factors)
	}

	var out []Bottleneck
	for i := 0; i < n; i++ {
		f := factors[i]
		b := Bottleneck{
			Factor:       f,
			Contribution: contrib[f],
			Scaling:      scalingFor(root, f, contrib[f]),
		}
		node := f
		for node != nil {
			b.Critical = append(b.Critical, node)
			b.Params = append(b.Params, node.Params...)
			node = criticalChild(node)
		}
		out = append(out, b)
	}
	return out
}

// zeroLeaves sets every leaf of the tree to 0, so add, max, min and mul
// roots evaluate to 0.
func zeroLeaves(n *Node) {
	n.Walk(func(x *Node) {
		if x.Op == Leaf {
			x.Value = 0
		}
	})
}

// wideTree is a random tree whose root has 9 to 40 children, past the 8
// pairs Analyze keeps on the stack and often past the 12 elements an
// unstable sort still sorts by insertion, with ties among their shares: at
// mul and div roots every child has the whole root.
func wideTree(rng *rand.Rand, depth int) *Node {
	root := &Node{Name: "w", Op: Op(rng.Intn(int(MinOp) + 1)), Value: randomValue(rng)}
	for range 9 + rng.Intn(32) {
		if rng.Intn(2) == 0 {
			root.Children = append(root.Children, NewLeaf("t", float64(rng.Intn(3))))
			continue
		}
		root.Children = append(root.Children, randomTree(rng, depth-1))
	}
	return root
}

// sameFloat reports whether a and b are the same float64, NaNs alike.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestAnalyzeMatchesContributionsReference builds each random tree twice
// from one seed, so each Analyze evaluates a fresh tree, and compares the
// two answers node for node by pre-order position: factor order,
// contribution and scaling bit for bit, critical path and parameters. It
// holds Contributions to its reference on the same trees.
func TestAnalyzeMatchesContributionsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var zero, nan, inf int
	for i := range 12000 {
		seed, depth := rng.Int63(), 1+rng.Intn(4)
		tree := randomTree
		if i%4 == 0 {
			tree = wideTree
		}
		got, want := tree(rand.New(rand.NewSource(seed)), depth), tree(rand.New(rand.NewSource(seed)), depth)
		if i%6 == 0 {
			zeroLeaves(got)
			zeroLeaves(want)
		}
		pos := map[*Node]int{}
		got.Walk(func(x *Node) { pos[x] = len(pos) })
		var wantAt []*Node // want's nodes by position
		want.Walk(func(x *Node) { pos[x] = len(wantAt); wantAt = append(wantAt, x) })
		at := func(ns []*Node) []int {
			out := make([]int, len(ns))
			for j, x := range ns {
				out[j] = pos[x]
			}
			return out
		}
		n := rng.Intn(7) - 1
		g, w := Analyze(got, n), analyzeMap(want, n)
		switch v := want.Value; {
		case v == 0:
			zero++
		case v != v:
			nan++
		case math.IsInf(v, 0):
			inf++
		}
		if len(g) != len(w) {
			t.Fatalf("tree %d (n=%d): %d bottlenecks, want %d", i, n, len(g), len(w))
		}
		gc, wc := Contributions(got), contributionsRef(want)
		if len(gc) != len(wc) {
			t.Fatalf("tree %d: Contributions has %d nodes, the reference %d", i, len(gc), len(wc))
		}
		for x, v := range gc {
			if ref, ok := wc[wantAt[pos[x]]]; !ok || !sameFloat(v, ref) {
				t.Fatalf("tree %d: node at %d contributes %v, the reference %v", i, pos[x], v, ref)
			}
		}
		for j := range w {
			gb, wb := g[j], w[j]
			if pos[gb.Factor] != pos[wb.Factor] {
				t.Fatalf("tree %d (n=%d) bottleneck %d: factor at %d, want %d", i, n, j, pos[gb.Factor], pos[wb.Factor])
			}
			if !sameFloat(gb.Contribution, wb.Contribution) || !sameFloat(gb.Scaling, wb.Scaling) {
				t.Fatalf("tree %d (n=%d) bottleneck %d: contribution %v scaling %v, want %v and %v",
					i, n, j, gb.Contribution, gb.Scaling, wb.Contribution, wb.Scaling)
			}
			if !slices.Equal(at(gb.Critical), at(wb.Critical)) {
				t.Fatalf("tree %d (n=%d) bottleneck %d: critical path %v, want %v", i, n, j, at(gb.Critical), at(wb.Critical))
			}
			if !slices.Equal(gb.Params, wb.Params) || (gb.Params == nil) != (wb.Params == nil) {
				t.Fatalf("tree %d (n=%d) bottleneck %d: params %q, want %q", i, n, j, gb.Params, wb.Params)
			}
		}
	}
	// The generator must reach the roots whose shares divide by 0, NaN or
	// an infinity.
	if zero < 100 || nan < 100 || inf < 100 {
		t.Fatalf("roots of 0, NaN and ±Inf: %d, %d and %d, want at least 100 each", zero, nan, inf)
	}
}

// analyzed keeps BenchmarkAnalyze's results, so the calls stay.
var analyzed []Bottleneck

// BenchmarkAnalyze ranks the Fig. 8 tree's bottlenecks, as the engine does
// for every layer it analyzes.
func BenchmarkAnalyze(b *testing.B) {
	root := fig8Tree()
	b.ReportAllocs()
	for range b.N {
		analyzed = Analyze(root, 3)
	}
}
