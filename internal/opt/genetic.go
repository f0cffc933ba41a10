package opt

import (
	"math/rand"
	"sort"
	"time"

	"xdse/internal/arch"
	"xdse/internal/search"
)

// Genetic is the evolutionary baseline (the paper uses scikit-opt):
// tournament selection, uniform crossover, and per-gene mutation over value
// indices, with the penalized objective as fitness.
type Genetic struct {
	// Pop is the population size (default 20).
	Pop int
	// MutationRate is the per-gene mutation probability (default 0.1).
	MutationRate float64
	// Elite is the number of top individuals carried over (default 2).
	Elite int
}

// Name implements search.Optimizer.
func (Genetic) Name() string { return "GeneticAlgorithm" }

// Run implements search.Optimizer.
func (g Genetic) Run(p *search.Problem, rng *rand.Rand) *search.Trace {
	t := &search.Trace{Name: g.Name()}
	start := time.Now()
	defer func() { t.Elapsed = time.Since(start) }()

	pop := g.Pop
	if pop <= 0 {
		pop = 20
	}
	if pop > p.Budget {
		pop = max(p.Budget, 2)
	}
	mut := g.MutationRate
	if mut <= 0 {
		mut = 0.1
	}
	elite := g.Elite
	if elite <= 0 {
		elite = 2
	}

	type indiv struct {
		pt    arch.Point
		score float64
	}
	evalBatch := func(pts []arch.Point) ([]indiv, bool) {
		costs, ok := evalRecord(t, p, pts)
		inds := make([]indiv, len(pts))
		for i, c := range costs {
			inds[i] = indiv{pts[i], score(c)}
		}
		return inds, ok
	}

	// The initial population is sampled up front on this goroutine (the
	// RNG stream never leaves it) and evaluated through the worker pool.
	pts := make([]arch.Point, clampBatch(t, p, pop))
	for i := range pts {
		pts[i] = p.Space.Random(rng)
	}
	cur, ok := evalBatch(pts)
	if !ok {
		return t
	}

	tournament := func() indiv {
		a, b := cur[rng.Intn(len(cur))], cur[rng.Intn(len(cur))]
		if a.score <= b.score {
			return a
		}
		return b
	}

	for {
		sort.Slice(cur, func(i, j int) bool { return cur[i].score < cur[j].score })
		next := make([]indiv, 0, pop)
		next = append(next, cur[:min(elite, len(cur))]...)
		for len(next) < pop {
			// Breed a whole batch of children from the frozen parent
			// generation (selection only reads cur, so breeding order
			// fully determines the RNG stream), then evaluate them in
			// parallel and record in breeding order.
			children := make([]arch.Point, clampBatch(t, p, pop-len(next)))
			for j := range children {
				a, b := tournament(), tournament()
				child := make(arch.Point, len(a.pt))
				for i := range child {
					if rng.Intn(2) == 0 {
						child[i] = a.pt[i]
					} else {
						child[i] = b.pt[i]
					}
					if rng.Float64() < mut {
						child[i] = rng.Intn(len(p.Space.Params[i].Values))
					}
				}
				children[j] = child
			}
			inds, ok := evalBatch(children)
			next = append(next, inds...)
			if !ok {
				return t
			}
		}
		cur = next
	}
}
