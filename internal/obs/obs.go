// Package obs is the zero-dependency observability layer of the repository:
// structured explanation events (the paper's auditable per-acquisition
// reasoning, §4.3, as typed records instead of free text), a metrics
// registry of counters/gauges/latency histograms, and pluggable sinks that
// receive the event stream (JSONL file, human-readable text, fan-out,
// null).
//
// Determinism contract: events are derived from — and never feed back into —
// the acquisition sequence. An optimizer's decisions must be bit-identical
// whether zero, one, or many sinks are attached; the only event fields
// allowed to differ between two runs of the same exploration are wall-clock
// readings (Event.WallNs durations and Event.StartNs span start timestamps)
// and the per-sink sequence number assigned at write time. Span identities in
// particular (Event.Trace/Span/Parent) come from per-run sequence counters,
// never from clocks or randomness, so two runs of the same exploration emit
// the same causal graph. Kill-and-resume therefore holds with tracing on: an
// interrupted run's trace is a prefix of the uninterrupted reference (up to
// those fields), and a resumed run — which deterministically re-executes
// from the start, answering replayed designs from the journal — re-emits
// the full reference event stream.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Float is a float64 whose JSON form tolerates non-finite values: +Inf, -Inf,
// and NaN marshal as strings (encoding/json rejects them as numbers), every
// finite value as a plain number. Infeasible solutions carry an infinite
// objective, so trace events must survive them.
type Float float64

// MarshalJSON implements json.Marshaler with non-finite values as strings.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both forms.
func (f *Float) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+Inf"`, `"Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Kind discriminates the event types of the explanation trace.
type Kind string

// The event taxonomy. Structured kinds carry typed fields; kinds that
// correspond to a line of the engine's historical human-readable log carry
// the pre-rendered line in Event.Text (the TextSink reproduces that log
// byte-for-byte by writing Text verbatim).
const (
	// KindStepStarted marks the start of one acquisition attempt.
	KindStepStarted Kind = "step_started"
	// KindBottleneckIdentified records one bottleneck factor surfaced by
	// the per-sub-function analysis (sub, factor, contribution, scaling).
	KindBottleneckIdentified Kind = "bottleneck_identified"
	// KindMitigationProposed records one aggregated parameter prediction
	// (param, predicted value, direction, mitigation rule).
	KindMitigationProposed Kind = "mitigation_proposed"
	// KindConstraintMitigation records a constraint-violation mitigation
	// pass (violated factor and its excess scaling).
	KindConstraintMitigation Kind = "constraint_mitigation"
	// KindBatchEvaluated records one candidate batch evaluation: points
	// submitted, memo hits vs new designs, and the batch wall time.
	KindBatchEvaluated Kind = "batch_evaluated"
	// KindIncumbentImproved records the adoption of a new solution
	// (attempt 0 is the initial solution).
	KindIncumbentImproved Kind = "incumbent_improved"
	// KindStepStalled records an attempt in which no candidate improved
	// the solution.
	KindStepStalled Kind = "step_stalled"
	// KindConverged records termination of one exploration (patience
	// exhausted or no candidates remain).
	KindConverged Kind = "converged"
	// KindNote carries free-form narration with no structured payload
	// (e.g. the rendered bottleneck trees of one attempt, or the
	// neighbor-sampling fallback notice).
	KindNote Kind = "note"
	// KindSpan records one completed span of the distributed tracing spine
	// (see span.go): a timed, causally-linked region of campaign, fleet,
	// or worker execution. Span events ride the same sinks as explanation
	// events so one JSONL file holds the merged cross-process trace.
	KindSpan Kind = "span"
)

// Event is one record of the explanation trace. It is a flat struct — one
// field set per Kind, unused fields zero — so emission passes it by value
// through the Sink interface without boxing (the null-sink hot path is
// allocation-free) and the JSONL wire form stays a single flat object.
type Event struct {
	// Seq is the per-sink write sequence number, assigned by sinks that
	// persist events (zero until then).
	Seq int `json:"seq"`
	// Run labels the exploration run that produced the event (e.g.
	// "ExplainableDSE-Codesign_ResNet18"); WithRun stamps it.
	Run string `json:"run,omitempty"`
	// Kind discriminates the event type.
	Kind Kind `json:"kind"`
	// Restart is the restart index of multi-restart explorations.
	Restart int `json:"restart,omitempty"`
	// Attempt is the acquisition attempt the event belongs to (0 = the
	// initial solution, before the first attempt).
	Attempt int `json:"attempt,omitempty"`
	// Sub is the sub-function index of a bottleneck analysis.
	Sub int `json:"sub,omitempty"`
	// Factor names the bottleneck factor (e.g. "T_dma") or, for
	// constraint mitigation, the violated constraint ("area", "power").
	Factor string `json:"factor,omitempty"`
	// Contribution is the factor's fractional contribution to its
	// sub-function's cost (0..1).
	Contribution Float `json:"contribution,omitempty"`
	// Scaling is the required improvement factor predicted for the
	// bottleneck (or the constraint excess for constraint mitigation).
	Scaling Float `json:"scaling,omitempty"`
	// Param names the design-space parameter of a proposed mitigation.
	Param string `json:"param,omitempty"`
	// Value is the predicted physical parameter value.
	Value int `json:"value,omitempty"`
	// Reduce reports a shrinking prediction (constraint mitigation).
	Reduce bool `json:"reduce,omitempty"`
	// Rule identifies the mitigation subroutine that produced the
	// prediction (e.g. "scale-pes", "dma-bandwidth").
	Rule string `json:"rule,omitempty"`
	// Why is the prediction's human-readable justification.
	Why string `json:"why,omitempty"`
	// Points is the candidate batch size.
	Points int `json:"points,omitempty"`
	// Hits counts batch points already charged to the trace budget
	// (answered from the memo, budget-free).
	Hits int `json:"hits,omitempty"`
	// Misses counts batch points evaluated for the first time.
	Misses int `json:"misses,omitempty"`
	// WallNs is a wall-clock duration in nanoseconds. It is the one
	// nondeterministic field of the trace; comparisons between runs must
	// normalize it (see EqualDeterministic).
	WallNs int64 `json:"wall_ns,omitempty"`
	// Objective is the solution objective of an incumbent event. It is a
	// Float because infeasible incumbents carry an infinite objective.
	Objective Float `json:"objective,omitempty"`
	// BudgetUtil is the solution's constraints-budget utilization.
	BudgetUtil Float `json:"budget,omitempty"`
	// Feasible reports the solution's feasibility.
	Feasible bool `json:"feasible,omitempty"`
	// Point renders the solution design point as name=value pairs.
	Point string `json:"point,omitempty"`
	// Stale is the consecutive non-improving attempt count.
	Stale int `json:"stale,omitempty"`
	// Text is the event's rendering in the engine's historical log
	// format; the TextSink writes exactly this (events with no legacy
	// line leave it empty).
	Text string `json:"text,omitempty"`
	// Trace identifies the trace a KindSpan event belongs to (one trace
	// per exploration run; see Tracer).
	Trace string `json:"trace,omitempty"`
	// Span is the span's identifier, unique within its trace and derived
	// from a per-tracer sequence counter — never from clocks or
	// randomness, so span identity is deterministic across runs.
	Span string `json:"span,omitempty"`
	// Parent is the identifier of the enclosing span ("" for a root).
	Parent string `json:"parent,omitempty"`
	// SpanKind classifies a span (SpanCampaign, SpanBatch, SpanRPC, ...).
	SpanKind string `json:"span_kind,omitempty"`
	// Name carries the span's instance label (shard key, design point,
	// run label) — what distinguishes it from siblings of the same kind.
	Name string `json:"name,omitempty"`
	// Worker is the worker address a SpanRPC span was dispatched to, and
	// the attribution key of the per-worker breakdown in `xdse trace`.
	Worker string `json:"worker,omitempty"`
	// StartNs is a span's wall-clock start in Unix nanoseconds. Like
	// WallNs it is exempt from the determinism contract; unlike every
	// other field it orders spans from different processes on one
	// timeline, which is all the Chrome export needs.
	StartNs int64 `json:"start_ns,omitempty"`
}

// EqualDeterministic reports whether two events agree on every
// reproducibility-relevant field — everything except the wall-clock readings
// (WallNs, StartNs) and the sink-assigned sequence number, which are the
// only fields the determinism contract exempts.
func (e Event) EqualDeterministic(o Event) bool {
	e.WallNs, o.WallNs = 0, 0
	e.StartNs, o.StartNs = 0, 0
	e.Seq, o.Seq = 0, 0
	return e == o
}

// Sink receives explanation events. Implementations must be safe for
// concurrent use when shared across runs (a campaign fans many runs into one
// file sink). Events arrive by value, so sinks may retain them freely.
type Sink interface {
	// Emit records one event.
	Emit(Event)
}

// NullSink discards every event. It exists so "tracing disabled" and
// "tracing enabled with a throwaway sink" exercise the identical emission
// path; Emit is allocation-free.
type NullSink struct{}

// Emit implements Sink by doing nothing.
func (NullSink) Emit(Event) {}

// TextSink renders events as the engine's historical human-readable log:
// each event's pre-rendered Text is written verbatim (events without a
// legacy line are skipped), so enabling it reproduces the pre-obs log
// output byte-for-byte.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a TextSink writing to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit implements Sink: it writes the event's legacy text rendering, if any.
func (s *TextSink) Emit(ev Event) {
	if ev.Text == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	io.WriteString(s.w, ev.Text)
}

// multiSink fans one event out to several sinks in registration order.
type multiSink struct{ sinks []Sink }

// Emit implements Sink by forwarding to every child in order.
func (m *multiSink) Emit(ev Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// Multi combines sinks into one fan-out sink. Nil entries are dropped;
// every event is delivered to the remaining sinks in argument order. It
// returns nil when nothing remains (so callers can chain it straight into
// NewEmitter), and the sink itself when exactly one remains.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multiSink{sinks: live}
}

// runSink stamps a run label on every event before forwarding.
type runSink struct {
	sink Sink
	run  string
}

// Emit implements Sink: it labels the event and forwards it.
func (s *runSink) Emit(ev Event) {
	if ev.Run == "" {
		ev.Run = s.run
	}
	s.sink.Emit(ev)
}

// WithRun wraps a sink so every event it receives carries the run label
// (events already labeled pass through unchanged). A nil sink yields nil.
func WithRun(s Sink, run string) Sink {
	if s == nil {
		return nil
	}
	return &runSink{sink: s, run: run}
}

// CollectSink buffers events in memory. The serve worker uses one to gather
// the spans of a single /eval request for return in the response, and tests
// use it to assert on emitted streams.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink by appending the event to the buffer.
func (c *CollectSink) Emit(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (c *CollectSink) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Emitter is the nil-safe handle optimizers emit through. A nil *Emitter is
// the disabled state: Enabled reports false and Emit is a no-op, so call
// sites guard expensive event construction (text rendering, point
// description) with Enabled and emit unconditionally otherwise.
type Emitter struct {
	sink Sink
}

// NewEmitter combines the given sinks into one emitter, returning nil — the
// disabled emitter — when every sink is nil.
func NewEmitter(sinks ...Sink) *Emitter {
	s := Multi(sinks...)
	if s == nil {
		return nil
	}
	return &Emitter{sink: s}
}

// Enabled reports whether events reach at least one sink. Call sites use it
// to skip constructing events whose fields are expensive to build.
func (e *Emitter) Enabled() bool { return e != nil }

// Emit forwards one event; on a nil (disabled) emitter it is a no-op. The
// event travels by value end-to-end, so emission through a NullSink
// performs no allocation.
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	e.sink.Emit(ev)
}
