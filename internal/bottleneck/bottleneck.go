// Package bottleneck implements the paper's domain-independent bottleneck
// model API (§4.3, Fig. 7). A bottleneck model is a tree whose nodes are
// mathematical functions (add, multiply, divide, max, min) over child cost
// factors, with design parameters at the leaves. Unlike a conventional cost
// model returning a single number, the tree is explicitly analyzable: the
// analyzer evaluates it, attributes a contribution to every factor, ranks
// bottlenecks, derives the scaling needed to rebalance the dominant factor,
// and walks the critical path down to the parameters that can mitigate it.
//
// Domain-specific models (like internal/accelmodel for DNN accelerators)
// build these trees from their cost-model outputs and attach parameter
// associations and mitigation subroutines; the DSE engine in internal/dse
// consumes them through this package without knowing the domain.
package bottleneck

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Op is the mathematical function of a tree node.
type Op int

const (
	// Leaf nodes carry populated values of parameters or measured
	// execution characteristics.
	Leaf Op = iota
	// AddOp nodes sum their children.
	AddOp
	// MulOp nodes multiply their children.
	MulOp
	// DivOp nodes divide the first child by the second.
	DivOp
	// MaxOp nodes take the maximum child.
	MaxOp
	// MinOp nodes take the minimum child.
	MinOp
)

// String names the operation.
func (o Op) String() string {
	return [...]string{"leaf", "add", "mul", "div", "max", "min"}[o]
}

// Node is one factor of a bottleneck model.
type Node struct {
	// Name identifies the factor ("T_dma", "footprint_W", ...). Names key
	// the parameter dictionary of Fig. 7(b).
	Name string
	// Op is the function combining the children into this factor's value.
	Op Op
	// Value is the populated value for Leaf nodes; for interior nodes it
	// is computed by Eval.
	Value float64
	// Children are the sub-factors.
	Children []*Node
	// Params lists the design parameters associated with this factor
	// (the dictionary entries of Fig. 7(b)); interpretation of the
	// strings is up to the domain model.
	Params []string
}

// NewLeaf returns a populated leaf factor.
func NewLeaf(name string, value float64) *Node {
	return &Node{Name: name, Op: Leaf, Value: value}
}

// New returns an interior factor combining children with op.
func New(name string, op Op, children ...*Node) *Node {
	return &Node{Name: name, Op: op, Children: children}
}

// Max is shorthand for New(name, MaxOp, ...).
func Max(name string, children ...*Node) *Node { return New(name, MaxOp, children...) }

// Add is shorthand for New(name, AddOp, ...).
func Add(name string, children ...*Node) *Node { return New(name, AddOp, children...) }

// Mul is shorthand for New(name, MulOp, ...).
func Mul(name string, children ...*Node) *Node { return New(name, MulOp, children...) }

// Div is shorthand for New(name, DivOp, num, den).
func Div(name string, num, den *Node) *Node { return New(name, DivOp, num, den) }

// WithParams attaches parameter associations to the node and returns it.
func (n *Node) WithParams(params ...string) *Node {
	n.Params = append(n.Params, params...)
	return n
}

// Eval computes and stores the value of the subtree rooted at n.
func (n *Node) Eval() float64 {
	switch n.Op {
	case Leaf:
		return n.Value
	case AddOp:
		v := 0.0
		for _, c := range n.Children {
			v += c.Eval()
		}
		n.Value = v
	case MulOp:
		v := 1.0
		for _, c := range n.Children {
			v *= c.Eval()
		}
		n.Value = v
	case DivOp:
		num := n.Children[0].Eval()
		den := 1.0
		if len(n.Children) > 1 {
			den = n.Children[1].Eval()
		}
		if den == 0 {
			n.Value = math.Inf(1)
		} else {
			n.Value = num / den
		}
	case MaxOp:
		v := math.Inf(-1)
		for _, c := range n.Children {
			if cv := c.Eval(); cv > v {
				v = cv
			}
		}
		n.Value = v
	case MinOp:
		v := math.Inf(1)
		for _, c := range n.Children {
			if cv := c.Eval(); cv < v {
				v = cv
			}
		}
		n.Value = v
	}
	return n.Value
}

// Validate checks structural sanity of the tree.
func (n *Node) Validate() error {
	if n.Op == Leaf {
		if len(n.Children) != 0 {
			return fmt.Errorf("bottleneck: leaf %q has children", n.Name)
		}
		return nil
	}
	if len(n.Children) == 0 {
		return fmt.Errorf("bottleneck: interior node %q has no children", n.Name)
	}
	if n.Op == DivOp && len(n.Children) != 2 {
		return fmt.Errorf("bottleneck: div node %q needs exactly 2 children", n.Name)
	}
	for _, c := range n.Children {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Walk visits every node of the tree in depth-first pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Find returns the first node with the given name, or nil.
func (n *Node) Find(name string) *Node {
	var out *Node
	n.Walk(func(x *Node) {
		if out == nil && x.Name == name {
			out = x
		}
	})
	return out
}

// Contributions computes each node's fractional contribution to the root
// cost. The root contributes 1; at add and max nodes children contribute
// proportionally to their values; at mul/div nodes the full contribution
// flows through every child (they are co-factors of the same quantity).
func Contributions(root *Node) map[*Node]float64 {
	root.Eval()
	contrib := map[*Node]float64{root: 1}
	var rec func(n *Node)
	rec = func(n *Node) {
		cn := contrib[n]
		for _, c := range n.Children {
			if cc, ok := share(n, c, cn); ok {
				contrib[c] = cc
				rec(c)
			}
		}
	}
	rec(root)
	return contrib
}

// share returns child c's contribution to the root cost, given its
// evaluated parent n's contribution cn: proportional to its value at add,
// max and min nodes (0 when n's value is 0), all of cn at mul and div
// nodes. ok is false below a leaf, whose children contribute nothing.
func share(n, c *Node, cn float64) (cc float64, ok bool) {
	switch n.Op {
	case AddOp, MaxOp, MinOp:
		if total := n.Value; total != 0 {
			return cn * c.Value / total, true
		}
		return 0, true
	case MulOp, DivOp:
		return cn, true
	}
	return 0, false
}

// maxScaling caps predicted one-shot scalings so a single acquisition never
// jumps beyond the design space's dynamic range.
const maxScaling = 64.0

// Bottleneck describes one identified bottleneck of a tree.
type Bottleneck struct {
	// Factor is the top-level cost factor identified as bottleneck
	// (a child of the root).
	Factor *Node
	// Critical is the path of argmax/largest-contribution nodes from
	// Factor down to the deepest contributing node.
	Critical []*Node
	// Contribution is Factor's fraction of the root cost.
	Contribution float64
	// Scaling is the ratio by which the factor's cost should shrink to
	// rebalance the tree (the paper's "s").
	Scaling float64
	// Params aggregates the parameter associations found along the
	// critical path (including Factor's own).
	Params []string
}

// Analyze evaluates the tree and returns up to n bottlenecks in decreasing
// contribution order. For a max root, the scaling of the dominant factor is
// root/second-highest (the Fig. 8 balance rule); for an add root it is the
// Amdahl balance 1/(1-contribution). Factors are the root's children, each
// contributing its Contributions share, which only the root decides; a root
// with no children yields no bottlenecks.
func Analyze(root *Node, n int) []Bottleneck {
	root.Eval()
	if len(root.Children) == 0 || n <= 0 {
		return nil
	}

	type factor struct {
		node    *Node
		contrib float64
	}
	// Roots seldom have more than a few children, so the factors usually
	// stay on the stack.
	var buf [8]factor
	factors := buf[:0]
	for _, c := range root.Children {
		cc, _ := share(root, c, 1)
		factors = append(factors, factor{c, cc})
	}
	// A stable sort by the strict >: ties, and NaN shares, which compare
	// with nothing, keep the order the sort leaves them in.
	slices.SortStableFunc(factors, func(a, b factor) int {
		switch {
		case a.contrib > b.contrib:
			return -1
		case b.contrib > a.contrib:
			return 1
		}
		return 0
	})

	out := make([]Bottleneck, min(n, len(factors)))
	for i := range out {
		f, b := factors[i], &out[i]
		b.Factor, b.Contribution = f.node, f.contrib
		b.Scaling = scalingFor(root, f.node, f.contrib)
		// Descend the critical path, collecting parameter associations.
		for node := f.node; node != nil; node = criticalChild(node) {
			b.Critical = append(b.Critical, node)
			b.Params = append(b.Params, node.Params...)
		}
	}
	return out
}

// scalingFor derives the rebalancing scaling for factor f of root.
func scalingFor(root, f *Node, contribution float64) float64 {
	var s float64
	switch root.Op {
	case MaxOp:
		// Reduce the dominant factor to the level of the runner-up.
		second := math.Inf(-1)
		for _, c := range root.Children {
			if c != f && c.Value > second {
				second = c.Value
			}
		}
		switch {
		case math.IsInf(second, -1) || second <= 0:
			s = 2 // single-factor tree: ask for a doubling
		default:
			s = f.Value / second
		}
	case AddOp:
		if contribution < 1 {
			s = 1 / (1 - contribution)
		} else {
			s = maxScaling
		}
	default:
		s = 2
	}
	if s < 1 {
		s = 1
	}
	if s > maxScaling {
		s = maxScaling
	}
	return s
}

// criticalChild picks the child to descend into: the argmax child of
// max/add nodes, the largest-value child of mul nodes, the numerator of div
// nodes, nil at leaves.
func criticalChild(n *Node) *Node {
	if len(n.Children) == 0 {
		return nil
	}
	switch n.Op {
	case DivOp:
		return n.Children[0]
	case MinOp:
		best := n.Children[0]
		for _, c := range n.Children[1:] {
			if c.Value < best.Value {
				best = c
			}
		}
		return best
	default:
		best := n.Children[0]
		for _, c := range n.Children[1:] {
			if c.Value > best.Value {
				best = c
			}
		}
		return best
	}
}

// Render pretty-prints the evaluated tree with values and contributions —
// the explainability artifact the DSE can show designers for every
// acquisition decision. Each node is one line: its name indented two spaces
// per level, " [op]" for interior nodes, " = " and the value to 4
// significant digits (fmt's %.4g), " (p%)" with its Contributions share to
// one decimal (%.1f), and " params=[a b]" when it has parameters. The lines
// are appended with strconv; no fmt runs.
func Render(root *Node) string {
	root.Eval()
	var b strings.Builder
	b.Grow(1024)
	var num [32]byte
	var rec func(n *Node, depth int, contrib float64, hasContrib bool)
	rec = func(n *Node, depth int, contrib float64, hasContrib bool) {
		for range depth {
			b.WriteString("  ")
		}
		b.WriteString(n.Name)
		if n.Op != Leaf {
			b.WriteString(" [")
			b.WriteString(n.Op.String())
			b.WriteByte(']')
		}
		b.WriteString(" = ")
		b.Write(strconv.AppendFloat(num[:0], n.Value, 'g', 4, 64))
		if hasContrib {
			b.WriteString(" (")
			b.Write(appendTenths(num[:0], contrib*100))
			b.WriteString("%)")
		}
		if len(n.Params) > 0 {
			b.WriteString(" params=[")
			for i, p := range n.Params {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(p)
			}
			b.WriteByte(']')
		}
		b.WriteByte('\n')
		// Children's shares follow Contributions exactly: none below a
		// leaf, or below a node without one.
		for _, c := range n.Children {
			cc, has := 0.0, false
			if hasContrib {
				cc, has = share(n, c, contrib)
			}
			rec(c, depth+1, cc, has)
		}
	}
	rec(root, 0, 1, true)
	return b.String()
}

// appendTenths appends v formatted as strconv.AppendFloat(dst, v, 'f', 1,
// 64) does. strconv takes its arbitrary-precision path for every 'f' with a
// precision, which dominated Render; here 10·|v| is rounded to an integer,
// ties to even, in exact 64-bit arithmetic whenever it is below 2^64.
// Anything else goes to strconv.
func appendTenths(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp, mant := int(bits>>52&0x7ff), bits&(1<<52-1)
	if exp == 0x7ff {
		return strconv.AppendFloat(dst, v, 'f', 1, 64)
	}
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	// |v| = mant·2^e, so 10·|v| = p·2^e with p < 2^57.
	p, e := mant*10, exp-1075
	var q uint64
	switch {
	case e >= 0:
		if e >= 64 || p > math.MaxUint64>>e {
			return strconv.AppendFloat(dst, v, 'f', 1, 64)
		}
		q = p << e
	case e > -64:
		s := uint(-e)
		q = p >> s
		rem, half := p&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	} // e <= -64: p < 2^57 < half, so q rounds to 0
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/10, 10)
	return append(dst, '.', byte('0'+q%10))
}
