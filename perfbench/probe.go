package main

import (
	"context"
	"math/rand"
	"net/http"
	"sync/atomic"

	"xdse/internal/arch"
	"xdse/internal/dse"
	"xdse/internal/eval"
	"xdse/internal/exp"
	"xdse/internal/obs"
	"xdse/internal/search"
)

// Span kinds of a traced pass, one per layer the benchmark times from
// outside. Each span wraps one call into a public entry point the campaign
// already passes through, so the program itself runs unmodified.
const (
	kindDSE        = "dse"        // one optimizer Run: the engine's whole exploration of one model
	kindSearch     = "search"     // one EvaluateBatch call, from its Prepare to its last evaluation
	kindEval       = "eval"       // one search.Problem.Evaluate call
	kindAccelModel = "accelmodel" // one dse.DomainModel call: bottleneck analysis and mitigation
	kindFleet      = "fleet"      // one search.Problem.Prepare call, or fleet.New at set-up
	kindServe      = "serve"      // one POST /eval served by a fleet worker
	kindEvalcache  = "evalcache"  // one evalcache.Open at set-up
)

// setupTrace is the trace ID of spans recorded while a pass sets up.
const setupTrace = "setup"

// probe is the instrumentation of one traced pass. It wraps the campaign's
// entry points and records one span per call through an obs.Tracer whose
// events stay in memory; every per-layer timing is derived from those spans
// after the pass. The wrappers only observe: arguments and results pass
// through unchanged, which the self-tests check against fingerprints.
type probe struct {
	tracer *obs.Tracer
	sink   *obs.CollectSink
	labels chan string // run labels, handed out in roster order
}

// newProbe returns a probe labelling the runs it wraps, in the order the
// campaign starts them, with labels (one per model; campaigns run serially).
func newProbe(labels []string) *probe {
	sink := &obs.CollectSink{}
	ch := make(chan string, len(labels)) // sized to the number of sends
	for _, l := range labels {
		ch <- l
	}
	close(ch)
	return &probe{tracer: obs.NewTracer(sink, ""), sink: sink, labels: ch}
}

// tr returns the probe's tracer; a nil probe (an untraced pass) yields the
// nil tracer, whose spans are inert.
func (p *probe) tr() *obs.Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// events returns every span recorded so far.
func (p *probe) events() []obs.Event { return p.sink.Events() }

// technique wraps tech so every optimizer it makes runs under the probe, and
// an Explainable-DSE engine's domain model is timed call by call.
func (p *probe) technique(tech exp.Technique) exp.Technique {
	mk := tech.Make
	tech.Make = func(space *arch.Space, cons eval.Constraints) search.Optimizer {
		run := &runProbe{p: p, inner: mk(space, cons), label: <-p.labels}
		if e, ok := run.inner.(*dse.Explorer); ok {
			e.Model = &modelProbe{run: run, inner: e.Model}
		}
		return run
	}
	return tech
}

// runProbe wraps one optimizer: its Run becomes a dse span, and the
// problem's Evaluate and Prepare hooks are wrapped into child spans.
type runProbe struct {
	p     *probe
	inner search.Optimizer
	label string
	span  obs.SpanContext // the running dse span; set before the inner Run starts
	batch atomic.Pointer[batchSpan]
}

// batchSpan is the search span of one EvaluateBatch call. It opens when the
// batch calls Prepare, which it does before dispatching any point, and ends
// with the last of the batch's evaluations: the batch calls Evaluate exactly
// once per point. Evaluations run on the batch's worker goroutines, so the
// span is ended by whichever finishes last.
type batchSpan struct {
	span obs.Span
	left atomic.Int64 // evaluations still to finish
}

// Name implements search.Optimizer.
func (r *runProbe) Name() string { return r.inner.Name() }

// Run implements search.Optimizer. A traced run always has a Prepare hook,
// so batch boundaries are visible; the hook is result-neutral by contract.
func (r *runProbe) Run(prob *search.Problem, rng *rand.Rand) *search.Trace {
	tr := r.p.tracer
	run := tr.StartRoot(r.label, kindDSE, r.label)
	r.span = run.Context()
	evaluate, prepare := prob.Evaluate, prob.Prepare
	prob.Prepare = func(ctx context.Context, pts []arch.Point) {
		b := &batchSpan{span: tr.StartChild(r.span, kindSearch, "batch")}
		b.span.Points = len(pts)
		b.left.Store(int64(len(pts)))
		r.batch.Store(b)
		if prepare != nil {
			sp := tr.StartChild(b.span.Context(), kindFleet, "prepare")
			sp.Points = len(pts)
			prepare(ctx, pts)
			sp.End()
		}
	}
	prob.Evaluate = func(pt arch.Point) search.Costs {
		parent, b := r.span, r.batch.Load()
		if b != nil {
			parent = b.span.Context()
		}
		sp := tr.StartChild(parent, kindEval, "")
		defer func() {
			sp.End()
			if b != nil && b.left.Add(-1) == 0 && r.batch.CompareAndSwap(b, nil) {
				b.span.End()
			}
		}()
		return evaluate(pt)
	}
	t := r.inner.Run(prob, rng)
	if b := r.batch.Swap(nil); b != nil {
		b.span.End() // a batch cut short by cancellation
	}
	run.End()
	return t
}

// modelProbe times every call into an Explainable-DSE domain model.
type modelProbe struct {
	run   *runProbe
	inner dse.DomainModel
}

func (m *modelProbe) start(name string) obs.Span {
	return m.run.p.tracer.StartChild(m.run.span, kindAccelModel, name)
}

// SubCosts implements dse.DomainModel.
func (m *modelProbe) SubCosts(raw any) []float64 {
	sp := m.start("sub-costs")
	defer sp.End()
	return m.inner.SubCosts(raw)
}

// MitigateObjective implements dse.DomainModel.
func (m *modelProbe) MitigateObjective(raw any, sub, maxBottlenecks int) ([]search.Prediction, string) {
	sp := m.start("mitigate-objective")
	defer sp.End()
	return m.inner.MitigateObjective(raw, sub, maxBottlenecks)
}

// MitigateConstraints implements dse.DomainModel.
func (m *modelProbe) MitigateConstraints(raw any) ([]search.Prediction, string) {
	sp := m.start("mitigate-constraints")
	defer sp.End()
	return m.inner.MitigateConstraints(raw)
}

// handler wraps a fleet worker's HTTP surface so every POST /eval becomes a
// serve span in the worker's own trace; a shed request (429) carries the
// status in the span's Err.
func (p *probe) handler(worker string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/eval" {
			h.ServeHTTP(w, r)
			return
		}
		sp := p.tracer.StartRoot(worker, kindServe, r.URL.Path)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		if sw.status == http.StatusTooManyRequests {
			sp.Err = shedErr
		}
		sp.End()
	})
}

// shedErr marks a serve span whose request the worker shed with 429.
const shedErr = "429"

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
