package eval

import (
	"context"
	"fmt"
	"sync"

	"xdse/internal/arch"
	"xdse/internal/checkpoint"
	"xdse/internal/obs"
	"xdse/internal/search"
)

// Problem adapts the evaluator into the domain-independent search contract
// consumed by every DSE technique. The evaluation budget counts unique
// design points (memoized re-visits are free, matching how the paper counts
// DSE iterations). The problem's batch-evaluation pool is sized from the
// evaluator's Workers setting — the Evaluator is concurrency-safe, so
// candidate batches fan out across the pool and deduplicate in flight.
func (e *Evaluator) Problem(budget int) *search.Problem {
	return e.ProblemCtx(context.Background(), budget)
}

// ProblemCtx is Problem with cancellation: the context is attached to the
// returned problem (optimizers check it at batch boundaries) and threaded
// into every evaluation, so cancelling it abandons in-flight work without
// charging the budget.
func (e *Evaluator) ProblemCtx(ctx context.Context, budget int) *search.Problem {
	if ctx == nil {
		ctx = context.Background()
	}
	return &search.Problem{
		Space:   e.cfg.Space,
		Budget:  budget,
		Workers: e.cfg.Workers,
		Stats:   &search.BatchStats{Hist: e.reg.Histogram("search_batch_seconds", obs.DurationBuckets())},
		Ctx:     ctx,
		Evaluate: func(pt arch.Point) search.Costs {
			return costsOf(e.EvaluateCtx(ctx, pt))
		},
	}
}

// costsOf projects a Result onto the search-layer Costs.
func costsOf(r *Result) search.Costs {
	return search.Costs{
		Objective:      r.Objective,
		Feasible:       r.Feasible,
		MeetsAreaPower: r.MeetsAreaPower,
		BudgetUtil:     r.BudgetUtil,
		Violations:     len(r.Violations),
		Err:            r.Err,
		Raw:            r,
	}
}

// ResumableProblem is ProblemCtx plus crash-safety: every completed unique
// evaluation is appended to the journal, and evaluations already journaled
// by a previous (killed) run are answered from the replayed records without
// recomputation.
//
// Resume invariants, in order of subtlety:
//
//  1. Replayed keys are Primed into the evaluator — charged to the
//     unique-design budget exactly as the original run charged them — so
//     budget accounting is bit-identical to an uninterrupted run.
//  2. Replayed Costs carry a search.Deferred thunk as Raw: the scalar
//     outcome needs no recomputation, but the dse engine's bottleneck
//     analysis needs the full *Result, so adopting a replayed solution
//     lazily re-evaluates the design (deterministic, memoized, and counted
//     as a recompute — never a new unique evaluation, by invariant 1).
//     The thunk ignores ctx's cancellation: a report resolving a replayed
//     best after an interrupt gets the design's result, not a cancelled one.
//  3. Only evaluations that actually completed are journaled: cancelled
//     results are skipped, so a kill can lose at most in-flight work, never
//     record work that didn't happen.
//
// Journal append errors degrade the run to unresumable rather than killing
// it: the error is reported once through warnf (when non-nil) and the run
// continues uncheckpointed.
func (e *Evaluator) ResumableProblem(ctx context.Context, budget int, j *checkpoint.Journal, warnf func(format string, args ...any)) *search.Problem {
	p := e.ProblemCtx(ctx, budget)
	if j == nil {
		return p
	}
	replay := make(map[string]search.Costs)
	var keys []string
	for _, rec := range j.Replayed() {
		key := rec.Key
		c := rec.Costs
		c.Raw = search.Deferred(func() any {
			pt, err := arch.ParseKey(key)
			if err != nil {
				// A journaled key that no longer parses cannot be
				// rematerialized; surface the reason in-band.
				return erroredResult(arch.Point{}, fmt.Sprintf("checkpoint replay: %v", err))
			}
			return e.EvaluateCtx(context.WithoutCancel(ctx), pt)
		})
		replay[key] = c
		keys = append(keys, key)
	}
	e.Prime(keys)

	var warnOnce sync.Once
	inner := p.Evaluate
	p.Evaluate = func(pt arch.Point) search.Costs {
		key := pt.Key()
		if c, ok := replay[key]; ok {
			return c
		}
		c := inner(pt)
		if r, ok := c.Raw.(*Result); ok && r.Cancelled {
			return c // abandoned work is never journaled
		}
		if err := j.Append(key, c); err != nil {
			warnOnce.Do(func() {
				if warnf != nil {
					warnf("checkpoint: journal append failed, run continues unresumable: %v", err)
				}
			})
		}
		return c
	}
	return p
}
