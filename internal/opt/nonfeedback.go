package opt

import (
	"math/rand"
	"time"

	"xdse/internal/arch"
	"xdse/internal/search"
)

// Grid is the non-feedback grid search baseline: it statically reduces the
// space to an evenly-strided lattice sized to the budget and evaluates it
// exhaustively in shuffled order (so partial budgets still cover the space).
type Grid struct{}

// Name implements search.Optimizer.
func (Grid) Name() string { return "GridSearch" }

// Run implements search.Optimizer.
func (Grid) Run(p *search.Problem, rng *rand.Rand) *search.Trace {
	t := &search.Trace{Name: Grid{}.Name()}
	start := time.Now()
	defer func() { t.Elapsed = time.Since(start) }()

	// Pick per-parameter value-subset sizes so the lattice roughly
	// matches the budget: walk the parameters round-robin, giving each
	// one more sample point while the lattice still fits ~2x the budget.
	nParams := len(p.Space.Params)
	counts := make([]int, nParams)
	for i := range counts {
		counts[i] = 1
	}
	lattice := 1
	for grown := true; grown; {
		grown = false
		for i, prm := range p.Space.Params {
			if counts[i] >= len(prm.Values) {
				continue
			}
			if next := lattice / counts[i] * (counts[i] + 1); next <= 2*p.Budget {
				lattice = next
				counts[i]++
				grown = true
			}
		}
	}
	subsets := make([][]int, nParams)
	for i, prm := range p.Space.Params {
		n := len(prm.Values)
		k := counts[i]
		for j := 0; j < k; j++ {
			idx := j * (n - 1) / max(k-1, 1)
			subsets[i] = append(subsets[i], idx)
		}
	}

	// Enumerate the lattice in mixed-radix order into a shuffled list.
	total := 1
	for _, s := range subsets {
		total *= len(s)
	}
	order := rng.Perm(total)
	decode := func(code int) arch.Point {
		pt := make(arch.Point, nParams)
		for i := range subsets {
			pt[i] = subsets[i][code%len(subsets[i])]
			code /= len(subsets[i])
		}
		return pt
	}
	// Stream the shuffled lattice through the worker pool in chunks
	// clamped to the remaining budget. Lattice points are unique, so the
	// clamp is exact and the trace never overruns the budget.
	for off := 0; off < len(order); {
		n := min(clampBatch(t, p, chunkSize(p)), len(order)-off)
		pts := make([]arch.Point, n)
		for i := range pts {
			pts[i] = decode(order[off+i])
		}
		off += n
		if _, ok := evalRecord(t, p, pts); !ok {
			break
		}
	}
	return t
}

// Random is the non-feedback uniform random search baseline.
type Random struct{}

// Name implements search.Optimizer.
func (Random) Name() string { return "RandomSearch" }

// Run implements search.Optimizer.
func (Random) Run(p *search.Problem, rng *rand.Rand) *search.Trace {
	t := &search.Trace{Name: Random{}.Name()}
	start := time.Now()
	defer func() { t.Elapsed = time.Since(start) }()
	// Sample chunks on this goroutine (one uninterrupted RNG stream) and
	// fan each chunk out across the worker pool. The recorded trace is the
	// same prefix of that stream regardless of chunk size or worker count:
	// RecordBatch stops at the budget and drops the rest of the chunk.
	for {
		pts := make([]arch.Point, clampBatch(t, p, chunkSize(p)))
		for i := range pts {
			pts[i] = p.Space.Random(rng)
		}
		if _, ok := evalRecord(t, p, pts); !ok {
			return t
		}
	}
}
