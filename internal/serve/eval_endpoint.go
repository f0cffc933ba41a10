package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"xdse/internal/arch"
	"xdse/internal/eval"
	"xdse/internal/fleet"
	"xdse/internal/obs"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// evalMaxBody bounds one POST /eval request body.
const evalMaxBody = 8 << 20

// evalPoolCap bounds the worker's evaluator pool: distinct
// (model, mode, trials, seed) configurations beyond it evict the oldest
// (FIFO), whose metrics fold into the jobs registry so nothing observable
// is lost.
const evalPoolCap = 8

// evalPoolKey identifies one pooled evaluator configuration. Everything
// that participates in the content address of a layer record participates
// here, so a pooled evaluator can never answer a request whose records it
// would mis-key.
type evalPoolKey struct {
	model  string
	mode   eval.MapperMode
	trials int
	seed   int64
}

// evaluatorFor returns the pooled evaluator for one shard configuration,
// creating (and, at capacity, evicting FIFO) as needed. Evaluators share the
// daemon's persistent cache, so repeat shards — and shards for designs seen
// by earlier jobs — answer from disk. An evicted evaluator stays valid for
// requests already holding it; it just stops being shared.
func (s *Server) evaluatorFor(model *workload.Model, mode eval.MapperMode, trials int, seed int64) *eval.Evaluator {
	key := evalPoolKey{model: model.Name, mode: mode, trials: trials, seed: seed}
	s.evalMu.Lock()
	defer s.evalMu.Unlock()
	if ev, ok := s.evalPool[key]; ok {
		return ev
	}
	ev := eval.New(eval.Config{
		Space:        arch.EdgeSpace(),
		Models:       []*workload.Model{model},
		Constraints:  eval.EdgeConstraints(),
		Mode:         mode,
		MapTrials:    trials,
		Seed:         seed,
		Workers:      s.opts.MaxJobWorkers,
		EvalTimeout:  s.opts.EvalTimeout,
		Retry:        s.opts.Retry,
		PersistCache: s.cache,
	})
	if len(s.evalOrder) >= evalPoolCap {
		oldest := s.evalOrder[0]
		s.evalOrder = s.evalOrder[1:]
		if old, ok := s.evalPool[oldest]; ok {
			// Fold the evicted evaluator's instruments into the jobs
			// registry so /metrics keeps its history.
			s.jobsReg.Merge(old.Metrics())
			delete(s.evalPool, oldest)
		}
	}
	s.evalPool[key] = ev
	s.evalOrder = append(s.evalOrder, key)
	return ev
}

// handleEval serves one fleet shard: validate the protocol and model-version
// handshake, evaluate every point through a pooled evaluator, and return the
// content-addressed layer records of the Results the evaluations returned.
// Admission mirrors the jobs API: draining → 503 + Retry-After, concurrency
// saturated → 429 + Retry-After, malformed or mismatched requests → 4xx
// (permanent for the coordinator), version skew → 412.
//
// A request carrying an obs.TraceHeader gets worker-side spans — queue wait,
// one span per evaluated point, record export — parented under the
// coordinator's rpc span and returned in the response for cross-process
// merge (and emitted to Options.Trace, when set). Tracing is observation
// only: an untraced request takes the identical evaluation path.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		httpError(w, http.StatusServiceUnavailable, "daemon draining")
		return
	}
	var req fleet.EvalRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, evalMaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "eval request exceeds %d-byte limit", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "parse eval request: %v", err)
		return
	}
	if req.Protocol != fleet.ProtocolVersion {
		httpError(w, http.StatusBadRequest, "fleet protocol %d, this worker speaks %d", req.Protocol, fleet.ProtocolVersion)
		return
	}
	if req.ModelVersion != perf.ModelVersion() {
		httpError(w, http.StatusPreconditionFailed, "cost-model version %q, this worker has %q", req.ModelVersion, perf.ModelVersion())
		return
	}
	mode, ok := eval.ParseMapperMode(req.Mode)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown mapper mode %q", req.Mode)
		return
	}
	model := workload.ByName(req.Model)
	if model == nil {
		httpError(w, http.StatusBadRequest, "unknown model %q", req.Model)
		return
	}
	if req.MapTrials <= 0 || len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "eval request needs map_trials > 0 and at least one point")
		return
	}
	pts := make([]arch.Point, 0, len(req.Points))
	for _, key := range req.Points {
		pt, err := arch.ParseKey(key)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad point %q: %v", key, err)
			return
		}
		pts = append(pts, pt)
	}

	// Non-blocking admission: saturation sheds with 429 and a back-off hint
	// instead of queueing shards whose coordinators would hedge or time them
	// out while they wait. The coordinator treats the 429 as backpressure and
	// tries the next healthy worker.
	select {
	case s.evalSem <- struct{}{}:
		s.gEvalInflight.Set(float64(len(s.evalSem)))
		defer func() {
			<-s.evalSem
			s.gEvalInflight.Set(float64(len(s.evalSem)))
		}()
	default:
		s.cEvalShed.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		httpError(w, http.StatusTooManyRequests, "eval concurrency %d saturated; retry later", s.opts.EvalConcurrent)
		return
	}
	s.hEvalWait.ObserveDuration(time.Since(t0))

	// Set up worker-side tracing when the coordinator sent trace context:
	// a collecting sink gathers this request's spans for the response, the
	// rpc span ID prefixes local span IDs ("<rpc>.<n>") so merged IDs never
	// collide, and the queue span retroactively covers arrival→admission.
	var col *obs.CollectSink
	var tr *obs.Tracer
	var parent obs.SpanContext
	if sc, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); ok {
		col = &obs.CollectSink{}
		tr = obs.NewTracer(obs.Multi(col, s.opts.Trace), sc.Span+".")
		parent = sc
		q := tr.StartChildAt(parent, obs.SpanQueue, "", t0)
		q.End()
	}

	s.cEvalShards.Inc()
	ev := s.evaluatorFor(model, mode, req.MapTrials, req.Seed)
	evCtx := obs.ContextWithSpan(r.Context(), tr, parent)
	results := make([]*eval.Result, 0, len(pts))
	for _, pt := range pts {
		// The request context carries the coordinator's attempt: one that
		// times out, loses a hedge race, or dies cancels it, and the worker
		// stops mid-shard instead of burning cycles on a result nobody will
		// accept.
		if evCtx.Err() != nil {
			break
		}
		// A cancelled result (this attempt's, or a cancelled evaluation of the
		// same point that this one joined) holds no decisions to export.
		if res := ev.EvaluateCtx(evCtx, pt); !res.Cancelled {
			results = append(results, res)
		}
	}
	// The records go straight from the Results into the one buffer the
	// body's lines are written from, each line framed in place.
	csp := tr.StartChild(parent, obs.SpanCache, "export")
	recs, n := ev.AppendRecords(nil, results)
	csp.Points = n
	csp.End()
	s.cEvalPoints.Add(int64(len(results)))
	s.cEvalRecords.Add(int64(n))
	hdr := fleet.EvalHeader{
		ModelVersion: perf.ModelVersion(),
		Evaluated:    len(results),
		Records:      n,
	}
	if col != nil {
		hdr.Spans = col.Events()
	}
	head, err := json.Marshal(hdr)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode eval header: %v", err)
		return
	}
	head = append(head, '\n')
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(recs)))
	w.Write(head) //nolint:errcheck // coordinator gone; nothing to do
	w.Write(recs) //nolint:errcheck
}

// evalEndpointMetrics registers the fleet-worker instruments on the service
// registry; called from New.
func (s *Server) evalEndpointMetrics(reg *obs.Registry) {
	s.cEvalShards = reg.Counter("serve_eval_shards_total")
	s.cEvalPoints = reg.Counter("serve_eval_points_total")
	s.cEvalRecords = reg.Counter("serve_eval_records_total")
	s.cEvalShed = reg.Counter("serve_eval_shed_total")
	s.gEvalInflight = reg.Gauge("serve_eval_inflight")
	s.hEvalWait = reg.Histogram("serve_eval_queue_wait_seconds", obs.DurationBuckets())
}
