// Package dse implements the Explainable-DSE engine of §4: a
// constraints-aware exploration driven by domain-specific bottleneck models.
// Every acquisition attempt analyzes the current solution's per-sub-function
// bottleneck trees, aggregates the predicted parameter values across
// sub-functions (§4.4), acquires one candidate per predicted value (§4.5),
// and updates the solution with constraint-budget awareness (§4.6). The
// engine is domain-independent: all domain knowledge enters through the
// DomainModel interface, the Go incarnation of the paper's Fig. 7 API.
package dse

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"xdse/internal/arch"
	"xdse/internal/obs"
	"xdse/internal/search"
)

// DomainModel is the bottleneck-model interface a domain plugs into the
// engine: sub-function cost attribution, objective-bottleneck mitigation,
// and constraint-violation mitigation. internal/accelmodel implements it
// for DNN accelerators; examples/customdomain implements it for a different
// domain to demonstrate the decoupling.
//
// Every method must be deterministic in raw: the same payload always yields
// the same costs, predictions and explanation. The engine analyzes an
// incumbent once and reuses that analysis for every attempt the incumbent
// stands through, so a model that drifts between calls would see its later
// answers ignored. The engine never mutates the returned predictions.
type DomainModel interface {
	// SubCosts returns the objective contribution of each sub-function
	// (e.g. per-unique-layer total cycles) for an evaluated solution.
	SubCosts(raw any) []float64
	// MitigateObjective analyzes sub-function sub's bottleneck tree and
	// returns parameter predictions plus a rendered explanation.
	MitigateObjective(raw any, sub, maxBottlenecks int) ([]search.Prediction, string)
	// MitigateConstraints analyzes a constraint-violating solution and
	// returns shrinking predictions plus an explanation.
	MitigateConstraints(raw any) ([]search.Prediction, string)
}

// Options tunes the engine; zero values select the paper's settings.
type Options struct {
	// TopK bounds the number of bottleneck sub-functions whose
	// mitigations are aggregated per attempt (§4.4ii; default 5).
	TopK int
	// ThresholdScale sets the sub-function contribution floor as
	// ThresholdScale*(1/l) for l sub-functions (default 0.5).
	ThresholdScale float64
	// MaxBottlenecksPerSub bounds bottleneck factors analyzed per
	// sub-function (default 2).
	MaxBottlenecksPerSub int
	// Aggregate merges multiple predicted values of one parameter
	// (default AggregateMin, the paper's choice; see §4.4i).
	Aggregate Aggregation
	// Patience is the number of consecutive non-improving acquisition
	// attempts tolerated before termination (default 5).
	Patience int
	// Log, when non-nil, receives the per-attempt explanations that make
	// the exploration auditable, rendered in the engine's historical
	// human-readable format (internally an obs.TextSink over the
	// structured event stream).
	Log io.Writer
	// DisableBudgetAwareUpdate replaces the §4.6 constraint-budget-aware
	// solution update with plain greedy feasible-min (ablation hook).
	DisableBudgetAwareUpdate bool
	// JointAcquisition applies all aggregated predictions to a single
	// candidate instead of one candidate per parameter (ablation hook
	// for §4.5).
	JointAcquisition bool
	// Restarts runs the exploration from this many initial points
	// (the first is the problem's initial point, the rest random),
	// splitting the budget — the §C workaround for bottleneck-oriented
	// greediness converging to local optima. Default 1.
	Restarts int
}

// Aggregation selects how multiple predicted values of the same parameter
// collapse into the final prediction (§4.4i).
type Aggregation int

const (
	// AggregateMin picks the minimum predicted value — the paper's
	// choice, avoiding over-aggressive scaling that exhausts constraints.
	AggregateMin Aggregation = iota
	// AggregateMax picks the maximum (fast but constraint-hungry).
	AggregateMax
	// AggregateMean picks the arithmetic mean.
	AggregateMean
)

// String names the aggregation rule.
func (a Aggregation) String() string { return [...]string{"min", "max", "mean"}[a] }

// Explorer is the Explainable-DSE optimizer.
type Explorer struct {
	Model DomainModel
	Opts  Options
}

// New returns an Explorer with the paper's default options.
func New(model DomainModel) *Explorer { return &Explorer{Model: model} }

// Name implements search.Optimizer.
func (e *Explorer) Name() string { return "ExplainableDSE" }

func (e *Explorer) opts() Options {
	o := e.Opts
	if o.TopK <= 0 {
		o.TopK = 5
	}
	if o.ThresholdScale <= 0 {
		o.ThresholdScale = 0.5
	}
	if o.MaxBottlenecksPerSub <= 0 {
		o.MaxBottlenecksPerSub = 2
	}
	if o.Patience <= 0 {
		o.Patience = 5
	}
	return o
}

// dirKey identifies a parameter/direction range for §4.6 monomodal pruning.
type dirKey struct {
	param  int
	reduce bool
}

// evaluated pairs an acquired candidate with its evaluation.
type evaluated struct {
	pt    arch.Point
	costs search.Costs
	pred  *search.Prediction
}

// Run implements search.Optimizer. With Restarts > 1 it explores from
// several initial points into one shared trace: all restarts draw on a
// single budget accounting, so the merged trace can never exceed p.Budget
// and a point re-visited across restarts is charged only once (it is
// memoized; no new design evaluation happens). Each restart is granted an
// even share of the budget; whatever earlier restarts leave unused (they
// typically converge early) flows to the final one.
func (e *Explorer) Run(p *search.Problem, rng *rand.Rand) *search.Trace {
	o := e.opts()
	t := &search.Trace{Name: e.Name()}
	start := time.Now()
	defer func() { t.Elapsed = time.Since(start) }()

	// One emitter serves the whole run: the legacy text log and the
	// problem-level sink (campaign tracing) both hang off it. A nil emitter
	// (nothing attached) keeps every emission a no-op and skips all
	// rendering.
	var text obs.Sink
	if o.Log != nil {
		text = obs.NewTextSink(o.Log)
	}
	em := obs.NewEmitter(text, p.Events)

	restarts := o.Restarts
	if restarts <= 1 {
		e.runFrom(p, t, p.Start(), rng, p.Budget, em, 0)
		return t
	}
	share := p.Budget / restarts
	if share < 2 {
		share = 2
	}
	for i := 0; i < restarts && t.Evaluations < p.Budget && !p.Cancelled(); i++ {
		initial := p.Start()
		if i > 0 {
			initial = p.Space.Random(rng)
		}
		stopAt := t.Evaluations + share
		if i == restarts-1 || stopAt > p.Budget {
			stopAt = p.Budget
		}
		e.runFrom(p, t, initial, rng, stopAt, em, i)
	}
	return t
}

// runFrom is one exploration from a given initial point, recorded into the
// shared trace t. stopAt is this restart's cumulative unique-evaluation
// ceiling (<= p.Budget): the restart yields once the trace reaches it.
// Events flow through em (nil = disabled, all emission and rendering
// skipped); restart labels them for multi-restart runs.
func (e *Explorer) runFrom(p *search.Problem, t *search.Trace, initial arch.Point, rng *rand.Rand, stopAt int, em *obs.Emitter, restart int) {
	o := e.opts()

	// left gates continuation on both the global budget (Record's own
	// check) and this restart's share.
	left := func(recordOK bool) bool { return recordOK && t.Evaluations < stopAt }

	cur := initial.Clone()
	curCosts := p.Evaluate(cur)
	// Cancellation contract: a cancelled evaluation is never recorded, so
	// an interrupted trace is a clean batch-boundary prefix of the
	// uninterrupted one (what makes kill-and-resume bit-identical).
	if p.Cancelled() {
		return
	}
	// The solution's Raw payload drives the bottleneck analysis; replayed
	// costs carry a Deferred thunk that must be materialized on adoption.
	curCosts.Raw = search.ResolveRaw(curCosts.Raw)
	if !left(t.Record(p, cur, curCosts)) {
		return
	}
	if em.Enabled() {
		em.Emit(obs.Event{
			Kind: obs.KindIncumbentImproved, Restart: restart, Attempt: 0,
			Why: "initial", Objective: obs.Float(curCosts.Objective),
			Feasible: curCosts.Feasible, BudgetUtil: obs.Float(curCosts.BudgetUtil),
			Text: fmt.Sprintf("initial solution: obj=%.4g feasible=%v budget=%.2f\n",
				curCosts.Objective, curCosts.Feasible, curCosts.BudgetUtil),
		})
	}

	// blocked remembers parameter/direction ranges abandoned after §4.6
	// monomodal pruning (a candidate violating more constraints than the
	// solution stops that parameter's range).
	blocked := map[dirKey]bool{}

	// an is the incumbent's analysis: nothing an attempt does changes it
	// until a new solution is adopted, so an attempt after a stalled one
	// re-emits it instead of asking the model again.
	var an *analysis
	stale := 0
	for attempt := 1; ; attempt++ {
		em.Emit(obs.Event{Kind: obs.KindStepStarted, Restart: restart, Attempt: attempt})
		if an == nil {
			an = e.analyze(o, em.Enabled(), restart, curCosts)
		}
		preds := an.preds
		for _, ev := range an.factors {
			ev.Attempt = attempt
			em.Emit(ev)
		}
		if an.explain != "" {
			em.Emit(obs.Event{
				Kind: obs.KindNote, Restart: restart, Attempt: attempt,
				Text: "--- attempt " + strconv.Itoa(attempt) + " ---\n" + an.explain,
			})
		}
		if em.Enabled() {
			for _, pr := range preds {
				em.Emit(obs.Event{
					Kind: obs.KindMitigationProposed, Restart: restart, Attempt: attempt,
					Param: p.Space.Params[pr.Param].Name, Value: pr.Value,
					Reduce: pr.Reduce, Rule: pr.Rule, Factor: pr.Factor,
					Scaling: obs.Float(pr.Scaling), Why: pr.Why,
				})
			}
		}

		cands := e.acquire(p, cur, preds, blocked)
		if len(cands) == 0 {
			// Bottleneck analysis yields nothing new: fall back to
			// the black-box counterpart (§4.3) — neighbor sampling.
			cands = e.neighborCandidates(p, cur, rng)
			if len(cands) == 0 {
				if em.Enabled() {
					em.Emit(obs.Event{
						Kind: obs.KindConverged, Restart: restart, Attempt: attempt,
						Text: fmt.Sprintf("no candidates remain; converged after %d attempts\n", attempt),
					})
				}
				return
			}
			if em.Enabled() {
				em.Emit(obs.Event{
					Kind: obs.KindNote, Restart: restart, Attempt: attempt,
					Text: fmt.Sprintf("no bottleneck-guided candidates; sampling %d neighbors\n", len(cands)),
				})
			}
		}

		// The candidate set of one attempt is embarrassingly parallel
		// (§4.5: one candidate per aggregated prediction) — evaluate it
		// as a batch on the problem's worker pool, then record in
		// deterministic candidate order. The batch is clamped to the
		// remaining budget so the evaluator never computes designs the
		// trace could not accept.
		if rem := stopAt - t.Evaluations; len(cands) > rem {
			cands = cands[:rem]
		}
		pts := make([]arch.Point, len(cands))
		for i := range cands {
			pts[i] = cands[i].pt
		}
		batchStart := time.Now()
		costs := p.EvaluateBatch(pts)
		if p.Cancelled() {
			return
		}
		if em.Enabled() {
			// Hits are computed from the trace's own seen-set (before
			// this batch is recorded), not from wall-clock or evaluator
			// state, so the field is deterministic across runs.
			hits := 0
			for _, pt := range pts {
				if t.Seen(pt) {
					hits++
				}
			}
			em.Emit(obs.Event{
				Kind: obs.KindBatchEvaluated, Restart: restart, Attempt: attempt,
				Points: len(pts), Hits: hits, Misses: len(pts) - hits,
				WallNs: time.Since(batchStart).Nanoseconds(),
			})
		}

		var evs []evaluated
		budgetLeft := true
		for i := range cands {
			evs = append(evs, evaluated{cands[i].pt, costs[i], cands[i].pred})
			if !left(t.Record(p, cands[i].pt, costs[i])) {
				budgetLeft = false
				break
			}
		}

		// §4.6 solution update.
		next, nextCosts, why := e.update(o, curCosts, evs, func(ev evaluated) {
			if ev.pred != nil && ev.costs.Violations > curCosts.Violations {
				blocked[dirKey{ev.pred.Param, ev.pred.Reduce}] = true
			}
		})
		if next != nil {
			if em.Enabled() {
				desc := describePoint(p.Space, next)
				em.Emit(obs.Event{
					Kind: obs.KindIncumbentImproved, Restart: restart, Attempt: attempt,
					Why: why, Objective: obs.Float(nextCosts.Objective), Feasible: nextCosts.Feasible,
					BudgetUtil: obs.Float(nextCosts.BudgetUtil), Point: desc,
					Text: fmt.Sprintf("attempt %d: new solution (%s): obj=%.4g feasible=%v budget=%.2f point=%s\n",
						attempt, why, nextCosts.Objective, nextCosts.Feasible, nextCosts.BudgetUtil, desc),
				})
			}
			cur, curCosts = next, nextCosts
			curCosts.Raw = search.ResolveRaw(curCosts.Raw)
			an = nil
			stale = 0
			// A new solution re-opens previously blocked ranges.
			blocked = map[dirKey]bool{}
		} else {
			stale++
			if em.Enabled() {
				em.Emit(obs.Event{
					Kind: obs.KindStepStalled, Restart: restart, Attempt: attempt, Stale: stale,
					Text: fmt.Sprintf("attempt %d: no candidate improved the solution (%d stale)\n", attempt, stale),
				})
			}
			// Block the grow-directions that failed so the next
			// attempt explores other parameters.
			for _, ev := range evs {
				if ev.pred != nil {
					blocked[dirKey{ev.pred.Param, ev.pred.Reduce}] = true
				}
			}
		}
		if !budgetLeft {
			return
		}
		// Convergence: patience applies once a feasible solution exists;
		// while still infeasible the engine keeps pushing toward the
		// feasible region (a 4x-patience guard stops true dead ends).
		patience := o.Patience
		if !curCosts.Feasible {
			patience *= 4
		}
		if stale >= patience {
			if em.Enabled() {
				em.Emit(obs.Event{
					Kind: obs.KindConverged, Restart: restart, Attempt: attempt, Stale: stale,
					Text: fmt.Sprintf("converged: %d attempts without improvement\n", stale),
				})
			}
			return
		}
	}
}

// analysis is the bottleneck analysis of one incumbent: the aggregated
// predictions its attempts acquire from and, when events are enabled, the
// explanation text and the per-sub-function factor events (their Attempt
// is stamped as each attempt emits them).
type analysis struct {
	preds   []search.Prediction
	explain string
	factors []obs.Event
}

// analyze performs the per-sub-function bottleneck analysis and §4.4
// aggregation of the solution with the given costs. The explanation and
// the bottleneck/constraint events are built only when explain is set —
// they feed the note event, the text log and the sinks, nothing else.
// Both mitigation paths share one event helper.
func (e *Explorer) analyze(o Options, explain bool, restart int, costs search.Costs) *analysis {
	an := &analysis{}
	var text strings.Builder

	// Unmet area/power constraints take priority: reach feasible
	// subspaces first (§4.6 and footnote 4).
	if !costs.MeetsAreaPower {
		preds, ex := e.Model.MitigateConstraints(costs.Raw)
		if len(preds) > 0 {
			if explain {
				text.WriteString("constraint mitigation:\n")
				text.WriteString(ex)
				an.factors = factorEvents(an.factors, obs.KindConstraintMitigation, restart, -1, preds)
				an.explain = text.String()
			}
			an.preds = e.aggregate(o, preds)
			return an
		}
	}

	subCosts := e.Model.SubCosts(costs.Raw)
	l := len(subCosts)
	if l == 0 {
		return an
	}
	total := 0.0
	for _, c := range subCosts {
		total += c
	}
	if total <= 0 {
		return an
	}
	threshold := o.ThresholdScale * (1.0 / float64(l))

	// Rank sub-functions by contribution; keep top-K above threshold.
	idx := make([]int, l)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return subCosts[idx[a]] > subCosts[idx[b]] })

	var preds []search.Prediction
	var num [32]byte
	taken := 0
	for _, i := range idx {
		if taken >= o.TopK {
			break
		}
		frac := subCosts[i] / total
		if frac < threshold {
			break
		}
		ps, ex := e.Model.MitigateObjective(costs.Raw, i, o.MaxBottlenecksPerSub)
		if explain {
			if ex != "" {
				text.WriteString("sub-function ")
				text.Write(strconv.AppendInt(num[:0], int64(i), 10))
				text.WriteString(" (")
				text.Write(strconv.AppendFloat(num[:0], frac*100, 'f', 1, 64))
				text.WriteString("% of cost):\n")
				text.WriteString(ex)
			}
			an.factors = factorEvents(an.factors, obs.KindBottleneckIdentified, restart, i, ps)
		}
		preds = append(preds, ps...)
		taken++
	}
	an.preds = e.aggregate(o, preds)
	an.explain = text.String()
	return an
}

// factorEvents appends one structured event per distinct bottleneck factor
// (or violated constraint) named in a prediction set — the shared
// provenance path of the objective and constraint mitigation analyses. sub
// is the sub-function index, or -1 for whole-solution constraint
// mitigation. The events carry no attempt yet.
func factorEvents(evs []obs.Event, kind obs.Kind, restart, sub int, preds []search.Prediction) []obs.Event {
	var seen map[string]bool
	for _, pr := range preds {
		if pr.Factor == "" || seen[pr.Factor] {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, len(preds))
		}
		seen[pr.Factor] = true
		ev := obs.Event{
			Kind: kind, Restart: restart,
			Factor: pr.Factor, Contribution: obs.Float(pr.Contribution), Scaling: obs.Float(pr.Scaling),
		}
		if sub >= 0 {
			ev.Sub = sub
		}
		evs = append(evs, ev)
	}
	return evs
}

// aggregate collapses multiple predicted values per parameter (§4.4i).
func (e *Explorer) aggregate(o Options, preds []search.Prediction) []search.Prediction {
	byParam := map[int][]search.Prediction{}
	var order []int
	for _, p := range preds {
		if _, seen := byParam[p.Param]; !seen {
			order = append(order, p.Param)
		}
		byParam[p.Param] = append(byParam[p.Param], p)
	}
	var out []search.Prediction
	for _, param := range order {
		ps := byParam[param]
		agg := ps[0]
		switch o.Aggregate {
		case AggregateMin:
			for _, p := range ps[1:] {
				if less(p, agg) {
					agg = p
				}
			}
		case AggregateMax:
			for _, p := range ps[1:] {
				if less(agg, p) {
					agg = p
				}
			}
		case AggregateMean:
			sum := 0
			for _, p := range ps {
				sum += p.Value
			}
			agg.Value = sum / len(ps)
		}
		out = append(out, agg)
	}
	return out
}

// less orders predictions by aggressiveness: for growth the smaller value
// is less aggressive; for reduction the larger value is.
func less(a, b search.Prediction) bool {
	if a.Reduce {
		return a.Value > b.Value
	}
	return a.Value < b.Value
}

// candidate pairs an acquired point with the prediction that produced it.
type candidate struct {
	pt   arch.Point
	pred *search.Prediction
}

// acquire materializes the candidate set CS: one candidate per aggregated
// prediction, each differing from the current solution in one parameter
// (§4.5), with predicted values rounded up (or down, for reductions) to the
// design space.
func (e *Explorer) acquire(p *search.Problem, cur arch.Point, preds []search.Prediction, blocked map[dirKey]bool) []candidate {
	o := e.opts()
	var cands []candidate
	seen := map[string]bool{cur.Key(): true}
	joint := cur.Clone()
	jointChanged := 0

	// PE-relative parameters resolve against the space's "PEs" parameter
	// when it exists; domains without one have no such parameters.
	pes := basePEs(p.Space, cur)
	for i := range preds {
		pred := preds[i]
		if blocked[dirKey{pred.Param, pred.Reduce}] {
			continue
		}
		var idx int
		if pred.Reduce {
			idx = roundDownPhysical(p.Space, pred.Param, pred.Value, pes)
		} else {
			idx = p.Space.RoundUpPhysical(pred.Param, pred.Value, pes)
		}
		idx = p.Space.Clamp(pred.Param, idx)
		if idx == cur[pred.Param] {
			// The rounding landed on the current value; take one
			// step in the predicted direction instead.
			if pred.Reduce {
				idx = p.Space.Clamp(pred.Param, idx-1)
			} else {
				idx = p.Space.Clamp(pred.Param, idx+1)
			}
			if idx == cur[pred.Param] {
				continue
			}
		}
		joint[pred.Param] = idx
		jointChanged++
		if o.JointAcquisition {
			continue
		}
		pt := cur.Clone()
		pt[pred.Param] = idx
		if seen[pt.Key()] {
			continue
		}
		seen[pt.Key()] = true
		cands = append(cands, candidate{pt, &preds[i]})
	}
	// When several parameters were predicted, also acquire the combined
	// candidate: balanced bottleneck factors (e.g. T_comp == T_dma) can
	// only improve when both are scaled in the same attempt.
	if jointChanged >= 2 || (o.JointAcquisition && jointChanged > 0) {
		if !seen[joint.Key()] {
			seen[joint.Key()] = true
			cands = append(cands, candidate{joint, nil})
		}
	}
	return cands
}

// describePoint renders a point as name=value pairs without assuming the
// accelerator space shape (custom domains have arbitrary parameters).
func describePoint(s *arch.Space, pt arch.Point) string {
	pes := basePEs(s, pt)
	var out strings.Builder
	for i, prm := range s.Params {
		if i > 0 {
			out.WriteByte(' ')
		}
		fmt.Fprintf(&out, "%s=%d", prm.Name, s.PhysicalValue(i, pt[i], pes))
	}
	return out.String()
}

// basePEs returns the physical value of the space's "PEs" parameter at pt,
// or 1 when the domain has no such parameter.
func basePEs(s *arch.Space, pt arch.Point) int {
	for i, prm := range s.Params {
		if prm.Name == "PEs" {
			return prm.Values[pt[i]]
		}
	}
	return 1
}

// roundDownPhysical mirrors Space.RoundUpPhysical for reductions.
func roundDownPhysical(s *arch.Space, param, want, pes int) int {
	prm := s.Params[param]
	if prm.Kind != arch.KindPERelative {
		return prm.RoundDownIndex(want)
	}
	idx := 0
	for i := range prm.Values {
		if s.PhysicalValue(param, i, pes) <= want {
			idx = i
		}
	}
	return idx
}

// neighborCandidates is the black-box fallback: +-1 index moves on a few
// random parameters.
func (e *Explorer) neighborCandidates(p *search.Problem, cur arch.Point, rng *rand.Rand) []candidate {
	var cands []candidate
	seen := map[string]bool{cur.Key(): true}
	for tries := 0; tries < 16 && len(cands) < 5; tries++ {
		param := rng.Intn(len(p.Space.Params))
		delta := 1
		if rng.Intn(2) == 0 {
			delta = -1
		}
		idx := p.Space.Clamp(param, cur[param]+delta)
		if idx == cur[param] {
			continue
		}
		pt := cur.Clone()
		pt[param] = idx
		if seen[pt.Key()] {
			continue
		}
		seen[pt.Key()] = true
		cands = append(cands, candidate{pt, nil})
	}
	return cands
}

// update selects the new solution among the evaluated candidates with
// §4.6 constraint-budget awareness, returning nil when no candidate beats
// the current solution. blockFn is called for every rejected candidate so
// monomodal ranges can be pruned.
func (e *Explorer) update(o Options, curCosts search.Costs, evs []evaluated, blockFn func(evaluated)) (arch.Point, search.Costs, string) {

	var feasible, infeasible []int
	for i, ev := range evs {
		if ev.costs.Feasible {
			feasible = append(feasible, i)
		} else {
			infeasible = append(infeasible, i)
			blockFn(ev)
		}
	}

	score := func(c search.Costs) float64 {
		if o.DisableBudgetAwareUpdate {
			return c.Objective
		}
		return c.Objective * math.Max(c.BudgetUtil, 1e-6)
	}

	// Scenario 2 (§4.6): some candidates satisfy all constraints — pick
	// the lowest objective x budget product, but never regress from a
	// feasible current solution.
	if len(feasible) > 0 {
		best := -1
		for _, i := range feasible {
			if best < 0 || score(evs[i].costs) < score(evs[best].costs) {
				best = i
			}
		}
		ev := evs[best]
		if curCosts.Feasible && ev.costs.Objective >= curCosts.Objective {
			return nil, search.Costs{}, ""
		}
		return ev.pt, ev.costs, "feasible, min objective x budget"
	}

	// Scenario 1: nothing feasible — move toward feasibility by least
	// constraints budget, unless the current solution already uses less.
	if curCosts.Feasible || len(infeasible) == 0 {
		return nil, search.Costs{}, ""
	}
	best := -1
	for _, i := range infeasible {
		if best < 0 || evs[i].costs.BudgetUtil < evs[best].costs.BudgetUtil {
			best = i
		}
	}
	ev := evs[best]
	if ev.costs.BudgetUtil >= curCosts.BudgetUtil {
		return nil, search.Costs{}, ""
	}
	return ev.pt, ev.costs, "infeasible, min constraints budget"
}
