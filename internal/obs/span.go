package obs

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The span-kind taxonomy of the distributed tracing spine, ordered from the
// outermost level down. One campaign span roots each exploration run; each
// candidate batch nests a batch span; fleet prefetch adds dispatch→rpc pairs
// per shard with worker-side queue/worker-eval/cache spans grafted under the
// rpc span via the trace header; install and replay spans close the loop on
// the coordinator.
const (
	// SpanCampaign is the root span of one exploration run.
	SpanCampaign = "campaign"
	// SpanBatch covers one EvaluateBatch call (prefetch + evaluation).
	SpanBatch = "batch"
	// SpanReplay covers the local evaluation of a batch's points — after
	// fleet prefetch this is pure cache replay, hence the name.
	SpanReplay = "replay"
	// SpanDispatch covers one shard's remote lifetime: every RPC attempt
	// plus the record install.
	SpanDispatch = "dispatch"
	// SpanRPC covers a single /eval POST to one worker; its WallNs minus
	// its worker-side children is the transfer + coordination overhead.
	SpanRPC = "rpc"
	// SpanHedge covers a hedged (straggler-rescue) dispatch attempt: it
	// parents the hedge's rpc span, so a trace shows which shards hedged,
	// where the hedge went (Worker), and which side won (the loser carries
	// Err). Nested under the shard's dispatch span.
	SpanHedge = "hedge"
	// SpanInstall covers installing a shard's returned records into the
	// local evaluator.
	SpanInstall = "install"
	// SpanQueue covers a worker-side wait: request arrival to evaluation
	// start (decode, validation, and admission-semaphore wait).
	SpanQueue = "queue"
	// SpanWorkerEval covers one design-point evaluation on a worker.
	SpanWorkerEval = "worker-eval"
	// SpanCache covers worker-side record export.
	SpanCache = "cache"
)

// SpanContext is the propagated identity of a span: which trace it belongs
// to and its own ID. It is a small value type so threading it through
// call chains and contexts costs nothing when tracing is off.
type SpanContext struct {
	// Trace is the trace identifier.
	Trace string
	// Span is the span identifier within that trace.
	Span string
}

// Tracer mints spans with deterministic identities: span IDs are a prefix
// plus a per-tracer sequence counter — no clocks, no randomness — so the
// causal graph of a traced run is itself reproducible, and tracing provably
// cannot perturb the exploration (identity never feeds back into
// acquisition). A nil *Tracer is the disabled state: every method is a
// no-op and spans it returns are inert, so call sites need no guards.
type Tracer struct {
	sink   Sink
	prefix string
	seq    atomic.Int64
}

// NewTracer returns a tracer emitting completed spans to sink, minting span
// IDs as prefix + counter. The coordinator uses prefix "" (IDs "1", "2",
// ...); a worker serving an /eval tagged with parent span P uses prefix
// "P." (IDs "P.1", "P.2", ...), which keeps merged cross-process IDs
// collision-free without coordination. A nil sink yields a nil (disabled)
// tracer.
func NewTracer(sink Sink, prefix string) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, prefix: prefix}
}

// Enabled reports whether spans reach a sink. Call sites use it to skip
// building expensive span attributes.
func (t *Tracer) Enabled() bool { return t != nil }

// nextID mints the next deterministic span ID.
func (t *Tracer) nextID() string {
	return t.prefix + strconv.FormatInt(t.seq.Add(1), 10)
}

// Span is one in-flight timed region. It is a value type: starting a span
// on a disabled tracer returns the zero Span, whose End is a no-op, so the
// untraced hot path performs no allocation and no work. The exported fields
// are attributes callers may set before End.
type Span struct {
	tr     *Tracer
	sc     SpanContext
	parent string
	kind   string
	name   string
	start  time.Time

	// Worker is the worker address an rpc span targeted.
	Worker string
	// Points is the number of design points the span covered.
	Points int
	// Err records why the spanned operation failed ("" = success).
	Err string
}

// StartRoot opens a root span (no parent) of the given trace.
func (t *Tracer) StartRoot(trace, kind, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr:    t,
		sc:    SpanContext{Trace: trace, Span: t.nextID()},
		kind:  kind,
		name:  name,
		start: time.Now(),
	}
}

// StartChild opens a span under parent, starting now.
func (t *Tracer) StartChild(parent SpanContext, kind, name string) Span {
	if t == nil {
		return Span{}
	}
	return t.StartChildAt(parent, kind, name, time.Now())
}

// StartChildAt opens a span under parent with an explicit start time — for
// regions whose beginning predates the tracer itself, like a worker's
// queue span measured from request arrival.
func (t *Tracer) StartChildAt(parent SpanContext, kind, name string, start time.Time) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr:     t,
		sc:     SpanContext{Trace: parent.Trace, Span: t.nextID()},
		parent: parent.Span,
		kind:   kind,
		name:   name,
		start:  start,
	}
}

// Context returns the span's propagable identity (zero for inert spans).
func (s *Span) Context() SpanContext { return s.sc }

// End completes the span and emits it as a KindSpan event. Idempotent, and
// a no-op on inert spans.
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	s.tr.sink.Emit(Event{
		Kind:     KindSpan,
		Trace:    s.sc.Trace,
		Span:     s.sc.Span,
		Parent:   s.parent,
		SpanKind: s.kind,
		Name:     s.name,
		Worker:   s.Worker,
		Points:   s.Points,
		Why:      s.Err,
		StartNs:  s.start.UnixNano(),
		WallNs:   time.Since(s.start).Nanoseconds(),
	})
	s.tr = nil
}

// Forward re-emits a completed span event produced elsewhere — the
// coordinator-side merge point for worker spans returned in an /eval
// response. The sink-assigned Seq is cleared so the local sink re-stamps
// it; non-span events are dropped.
func (t *Tracer) Forward(ev Event) {
	if t == nil || ev.Kind != KindSpan {
		return
	}
	ev.Seq = 0
	t.sink.Emit(ev)
}

// ctxKey keys the tracer+span pair stored in a context.
type ctxKey struct{}

// ctxSpan is the context payload: which tracer to mint children from and
// which span to parent them to.
type ctxSpan struct {
	tr *Tracer
	sc SpanContext
}

// ContextWithSpan returns a context carrying tr and the current span sc, for
// call chains that cross API boundaries (EvaluateBatch → Prepare → fleet,
// serve handler → evaluator). A nil tracer returns ctx unchanged.
func ContextWithSpan(ctx context.Context, tr *Tracer, sc SpanContext) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxSpan{tr: tr, sc: sc})
}

// SpanFromContext extracts the tracer and current span stored by
// ContextWithSpan, reporting ok=false (and a nil, safely inert tracer) when
// the context carries none.
func SpanFromContext(ctx context.Context) (*Tracer, SpanContext, bool) {
	v, ok := ctx.Value(ctxKey{}).(ctxSpan)
	if !ok {
		return nil, SpanContext{}, false
	}
	return v.tr, v.sc, true
}

// TraceHeader is the HTTP header propagating trace context across process
// boundaries (the fleet coordinator sets it on POST /eval), playing the role
// of W3C traceparent with this repo's deterministic IDs.
const TraceHeader = "X-Xdse-Traceparent"

// traceHeaderVersion is the header format version. Parsers reject versions
// they do not know, so a future format change is a new version number, not
// a silent misparse (see docs/EXTENDING.md for the bump rules).
const traceHeaderVersion = "1"

// FormatTraceHeader renders sc as a TraceHeader value:
// "<version> <trace> <parent-span>", space-separated because deterministic
// trace IDs are run labels containing "-", "_", and ".".
func FormatTraceHeader(sc SpanContext) string {
	return traceHeaderVersion + " " + sc.Trace + " " + sc.Span
}

// ParseTraceHeader parses a TraceHeader value, reporting ok=false for empty
// values, unknown versions, or malformed field counts — an untraced or
// future-versioned request simply proceeds untraced.
func ParseTraceHeader(v string) (SpanContext, bool) {
	parts := strings.Fields(v)
	if len(parts) != 3 || parts[0] != traceHeaderVersion {
		return SpanContext{}, false
	}
	return SpanContext{Trace: parts[1], Span: parts[2]}, true
}
