// Package search defines the domain-independent exploration contract shared
// by every DSE technique in this repository: a discrete design space, an
// evaluation function returning objective and constraint information, and a
// trace of acquisitions. The Explainable-DSE engine (internal/dse) and all
// black-box baselines (internal/opt) implement the same Optimizer interface
// over this contract, which is what lets the paper's comparisons run on an
// identical substrate (§5).
package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"xdse/internal/arch"
	"xdse/internal/obs"
)

// Costs is the outcome of evaluating one design point.
type Costs struct {
	// Objective is the value being minimized (whole-workload latency in
	// ms for the accelerator study); +Inf marks unevaluable designs.
	Objective float64
	// Feasible reports that every inequality constraint holds and the
	// design is compatible with its software configuration.
	Feasible bool
	// MeetsAreaPower reports the area/power constraints alone.
	MeetsAreaPower bool
	// BudgetUtil is the §4.6 constraints budget: mean utilization of the
	// constraint thresholds (<1 on every constraint implies feasible).
	BudgetUtil float64
	// Violations counts violated constraints (monomodal-range pruning of
	// §4.6 compares candidate violation counts against the solution's).
	Violations int
	// Err, when non-empty, explains why the design could not be evaluated
	// normally (a recovered panic, an injected fault, a watchdog timeout,
	// or cancellation). Errored designs are always infeasible.
	Err string
	// Raw carries the domain evaluation payload (e.g. *eval.Result) for
	// domain-specific bottleneck models. It may be a Deferred thunk when
	// the costs were replayed from a checkpoint journal; consumers that
	// need the payload must resolve it through ResolveRaw.
	Raw any
}

// Deferred is a lazily rematerialized evaluation payload: checkpoint replay
// restores a design's Costs without its domain payload (the journal stores
// only the scalar outcome), so Raw carries a thunk that recomputes the
// payload on demand. Resolution is deterministic — the evaluator memoizes by
// design key — and never charges the unique-design budget (replayed keys are
// pre-seeded as already evaluated).
type Deferred func() any

// ResolveRaw materializes a Costs.Raw payload, invoking a Deferred thunk if
// one is present and returning any other payload unchanged.
func ResolveRaw(raw any) any {
	if d, ok := raw.(Deferred); ok {
		return d()
	}
	return raw
}

// Prediction is one bottleneck-mitigating parameter prediction produced by
// a domain bottleneck model (§4.3c): the design-space parameter to change,
// the predicted physical value, the direction (grow for objective
// mitigation, shrink for constraint mitigation), and a human-readable
// explanation of why.
type Prediction struct {
	// Param indexes the design-space parameter to change.
	Param int
	// Value is the predicted physical value for that parameter.
	Value int
	// Reduce marks a shrinking prediction (constraint mitigation).
	Reduce bool
	// Why is the human-readable justification.
	Why string
	// Factor names the bottleneck factor (or violated constraint) that
	// drove the prediction — provenance for the structured trace.
	Factor string
	// Contribution is the driving factor's fractional share of its
	// sub-function's cost (0..1; zero when not attributed).
	Contribution float64
	// Scaling is the improvement factor the prediction aims for.
	Scaling float64
	// Rule identifies the mitigation subroutine that produced the
	// prediction (e.g. "scale-pes", "dma-bandwidth").
	Rule string
}

// Problem is a constrained minimization over a discrete space (§A.1).
type Problem struct {
	Space *arch.Space
	// Evaluate returns the costs of a point. Implementations are
	// expected to memoize; the iteration budget counts unique points.
	// When Workers > 1 it must also be safe for concurrent use
	// (EvaluateBatch calls it from the worker pool).
	Evaluate func(arch.Point) Costs
	// Budget is the maximum number of unique design evaluations.
	Budget int
	// Initial is the starting point (nil = Space.Initial()).
	Initial arch.Point
	// Workers bounds EvaluateBatch parallelism. 0 or 1 evaluates
	// serially on the calling goroutine, which is always safe; anything
	// higher requires a concurrency-safe Evaluate (eval.Evaluator
	// qualifies: its memoization is lock-protected and in-flight
	// evaluations of the same point are deduplicated).
	Workers int
	// MaxSteps caps the total acquisitions recorded on a trace,
	// including memoized repeats, which no longer consume budget. It
	// guarantees termination for optimizers that keep revisiting
	// already-evaluated points after converging (0 = 10x Budget).
	MaxSteps int
	// Stats, when non-nil, accumulates EvaluateBatch counters for this
	// problem so campaign reports can measure the batch layer. It is a
	// pointer so Problem values stay trivially copyable.
	Stats *BatchStats
	// Ctx, when non-nil, cancels the exploration: EvaluateBatch stops
	// dispatching work once the context is done, and every optimizer
	// checks Cancelled at its batch boundaries and returns its partial
	// trace. A nil Ctx means the run cannot be cancelled.
	Ctx context.Context
	// Events, when non-nil, receives the structured explanation events an
	// optimizer emits while exploring (see internal/obs). Events are
	// derived from — and never feed back into — the acquisition sequence,
	// so attaching a sink cannot change a trace's Fingerprint.
	Events obs.Sink
	// Prepare, when non-nil, runs once at the top of every EvaluateBatch
	// call, before any point is dispatched to Evaluate. It is a
	// result-neutral warming hook: implementations may only prefill caches
	// (the distributed fleet installs remotely computed, content-addressed
	// sub-results here) — evaluation correctness must never depend on it
	// running, partially running, or being skipped, so batch results are
	// bit-identical with or without it.
	Prepare func(ctx context.Context, pts []arch.Point)
	// Tracer, when non-nil, makes EvaluateBatch open a batch span (and a
	// nested replay span) around every call, parented to TraceSpan, and
	// propagate the batch span to Prepare via the context — the campaign
	// half of the distributed tracing spine. Like Events, spans are
	// derived observations only; a nil Tracer is the (free) disabled
	// state.
	Tracer *obs.Tracer
	// TraceSpan is the span every batch span parents to — normally the
	// run's campaign root span. Zero makes batch spans roots.
	TraceSpan obs.SpanContext
}

// Context returns the problem's cancellation context (context.Background
// when none was attached).
func (p *Problem) Context() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// Cancelled reports whether the problem's context has been cancelled.
// Optimizers consult it at batch boundaries: a cancelled batch is never
// recorded on the trace, so an interrupted run's trace is a clean prefix of
// the uninterrupted acquisition sequence at batch granularity.
func (p *Problem) Cancelled() bool {
	return p.Ctx != nil && p.Ctx.Err() != nil
}

// Validate checks the problem's externally supplied parts once at
// construction time: a non-nil Initial point must be well-formed for the
// space. Optimizers may assume a validated problem and construct all further
// points through Space methods, which keeps the hot path free of arity
// checks (malformed points reaching Space.Decode degrade to an error, not a
// panic).
func (p *Problem) Validate() error {
	if p.Space == nil {
		return fmt.Errorf("search: problem has no space")
	}
	if p.Initial != nil {
		if err := p.Space.CheckPoint(p.Initial); err != nil {
			return fmt.Errorf("search: initial point: %w", err)
		}
	}
	return nil
}

// maxSteps resolves the acquisition cap (see Problem.MaxSteps).
func (p *Problem) maxSteps() int {
	if p.MaxSteps > 0 {
		return p.MaxSteps
	}
	return 10 * p.Budget
}

// Start returns the problem's initial point.
func (p *Problem) Start() arch.Point {
	if p.Initial != nil {
		return p.Initial.Clone()
	}
	return p.Space.Initial()
}

// Step records one acquisition of a trace.
type Step struct {
	Iter      int
	Point     arch.Point
	Costs     Costs
	BestSoFar float64 // best feasible objective after this step (+Inf if none yet)
}

// Trace is the full record of one exploration run.
type Trace struct {
	Name  string
	Steps []Step
	// Best is the best feasible point found (nil if none).
	Best      arch.Point
	BestCosts Costs
	// Evaluations is the number of unique design evaluations consumed —
	// the budget currency of the paper (§4.6, §5). Acquiring a point the
	// trace has already seen is free: the evaluator memoizes it, so no
	// new design evaluation happens.
	Evaluations int
	// RepeatSteps counts acquisitions of already-seen points. They are
	// recorded in Steps (the acquisition sequence is complete) but are
	// not charged against the budget, matching eval.Evaluator's notion
	// of unique design evaluations.
	RepeatSteps int
	Elapsed     time.Duration

	// seen tracks which point keys have been charged against the budget.
	seen map[string]bool
}

// Record appends an acquisition and maintains the best feasible solution.
// Only the first acquisition of a point consumes budget; re-acquiring a
// memoized point increments RepeatSteps instead. It returns true while the
// budget (and the repeat-inclusive step cap) allows further acquisitions.
func (t *Trace) Record(p *Problem, pt arch.Point, c Costs) bool {
	improved := c.Feasible && (t.Best == nil || c.Objective < t.BestCosts.Objective)
	if improved {
		t.Best = pt.Clone()
		t.BestCosts = c
	}
	best := math.Inf(1)
	if t.Best != nil {
		best = t.BestCosts.Objective
	}
	t.Steps = append(t.Steps, Step{
		Iter:      len(t.Steps),
		Point:     pt.Clone(),
		Costs:     c,
		BestSoFar: best,
	})
	if t.seen == nil {
		t.seen = make(map[string]bool)
	}
	if key := pt.Key(); t.seen[key] {
		t.RepeatSteps++
	} else {
		t.seen[key] = true
		t.Evaluations++
	}
	return t.Evaluations < p.Budget && len(t.Steps) < p.maxSteps()
}

// Seen reports whether a point has already been charged against this
// trace's budget (i.e. it was acquired before and is memoized).
func (t *Trace) Seen(pt arch.Point) bool { return t.seen[pt.Key()] }

// RecordBatch records a batch of evaluations in deterministic candidate
// order, stopping as soon as the budget is exhausted (later entries are
// dropped, exactly as a serial loop would never have reached them). It
// returns true while the budget allows further acquisitions.
func (t *Trace) RecordBatch(p *Problem, pts []arch.Point, costs []Costs) bool {
	for i := range pts {
		if !t.Record(p, pts[i], costs[i]) {
			return false
		}
	}
	return true
}

// EvalsToReach returns the number of unique design evaluations spent when
// the trace first acquired a feasible design with objective <= target, or
// 0 if it never did. This is the paper's iteration-count currency for
// convergence comparisons (§5): with repeats budget-free, every optimizer
// that runs to completion consumes the same total budget, so convergence
// speed must be read from where a quality level was reached, not from the
// total spent.
func (t *Trace) EvalsToReach(target float64) int {
	seen := make(map[string]bool, len(t.Steps))
	unique := 0
	for _, s := range t.Steps {
		if key := s.Point.Key(); !seen[key] {
			seen[key] = true
			unique++
		}
		if s.Costs.Feasible && s.Costs.Objective <= target {
			return unique
		}
	}
	return 0
}

// EvalsToBest returns the number of unique design evaluations spent when
// the final best objective was first reached (0 if no feasible design was
// found).
func (t *Trace) EvalsToBest() int {
	if t.Best == nil {
		return 0
	}
	return t.EvalsToReach(t.BestCosts.Objective)
}

// BestObjective returns the best feasible objective, or +Inf.
func (t *Trace) BestObjective() float64 {
	if t.Best == nil {
		return math.Inf(1)
	}
	return t.BestCosts.Objective
}

// FeasibleFraction returns the fraction of acquisitions that were feasible.
func (t *Trace) FeasibleFraction() float64 {
	if len(t.Steps) == 0 {
		return 0
	}
	n := 0
	for _, s := range t.Steps {
		if s.Costs.Feasible {
			n++
		}
	}
	return float64(n) / float64(len(t.Steps))
}

// AreaPowerFraction returns the fraction of acquisitions meeting area and
// power constraints (the Fig. 12 notion without throughput).
func (t *Trace) AreaPowerFraction() float64 {
	if len(t.Steps) == 0 {
		return 0
	}
	n := 0
	for _, s := range t.Steps {
		if s.Costs.MeetsAreaPower {
			n++
		}
	}
	return float64(n) / float64(len(t.Steps))
}

// ReductionPerAttempt returns the average percentage by which the running
// best feasible objective shrinks per acquisition, geometric-mean over all
// acquisitions after the first feasible one (non-improving acquisitions
// count as zero reduction) — the Table 3 metric.
func (t *Trace) ReductionPerAttempt() float64 {
	prev := math.Inf(1)
	logSum, n := 0.0, 0
	for _, s := range t.Steps {
		if math.IsInf(s.BestSoFar, 1) {
			continue
		}
		if !math.IsInf(prev, 1) {
			n++
			if s.BestSoFar < prev {
				logSum += math.Log(prev / s.BestSoFar)
			}
		}
		prev = s.BestSoFar
	}
	if n == 0 {
		return 0
	}
	return (math.Exp(logSum/float64(n)) - 1) * 100
}

// Optimizer is the interface every DSE technique implements.
type Optimizer interface {
	// Name identifies the technique in reports.
	Name() string
	// Run explores the problem until its budget is exhausted or the
	// technique converges, returning the acquisition trace.
	Run(p *Problem, rng *rand.Rand) *Trace
}
