// Package fleet coordinates a campaign across a pool of xdse serve worker
// daemons. The coordinator never delegates *results* — workers compute
// layer-grain mapping searches and return content-addressed evalcache
// records, which the coordinator installs as cache prefill before running
// every evaluation locally. Bit-identical merged campaigns therefore hold by
// construction: a lost, late, corrupt, or missing record only means the
// coordinator recomputes that layer itself, and the design-level trace
// (hence Trace.Fingerprint) is untouched by any fleet failure mode.
//
// Record path: a worker's /eval body is one JSON header line (EvalHeader)
// and then the shard's record lines exactly as the store writes them (see
// DecodeEvalBody). The coordinator reads the body into one buffer of its
// Content-Length, decodes each line where it lies, and installs the decoded
// slice by pointer (eval.InstallRecords keeps it). The records take their
// shapes, mode and version from a table built once per Prepare and their
// sub-keys from one intern table per response. A torn body is a transient
// fault; a line that fails its CRC, parse or version check is dropped and
// counted in fleet_records_rejected_total.
//
// Robustness model:
//   - Prepare is local-first: a point whose every layer record the local
//     evaluator already holds (record map or persistent store) is never
//     dispatched, so a coordinator restarted over the same cache directory
//     resumes without re-dispatching what it already merged.
//   - A batch's fresh points are dealt round-robin into shards, and each
//     shard goes first to the next healthy worker in turn. No placement is
//     sticky: Prepare never dispatches a point the coordinator already
//     holds, so there is no repeat point for a worker to be warm for.
//   - Every dispatch attempt runs under a 2-minute deadline, and one still
//     unanswered after HedgeAfter is hedged to the next healthy worker
//     (first result wins). A failed attempt — worker killed mid-flight, hung
//     past its deadline, or transport failure — re-dispatches the shard to
//     the next healthy worker (work stealing). Late and duplicate results
//     need no gate: installing a content-addressed record twice is a no-op.
//   - A failed dispatch attempt is a dispatchError, whose kind says what
//     happened: transport errors, timeouts, 5xx and torn bodies are
//     transient (retried at once on an untried worker, after a capped
//     deterministic backoff on one already tried); other 4xx and
//     model-version skew are permanent (surfaced in the campaign report,
//     never retried). Version skew additionally quarantines the worker, and
//     dispatchFaultLimit transient faults in a row mark it unreachable until
//     its next good readyz probe. A 429 is a shed: backpressure, not a
//     fault, retried like a transient but never charged to the worker.
//   - With zero healthy workers every shard falls back to pure local
//     execution while the monitor keeps probing; workers rejoin
//     transparently.
//
// Faults are injected for testing only at the worker (ChaosPolicy, wrapped
// around its /eval handler by `xdse serve -chaos`), so the coordinator's
// dispatch path holds production logic alone and meets every injected fault
// as a genuine HTTP outcome.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"xdse/internal/arch"
	"xdse/internal/eval"
	"xdse/internal/evalcache"
	"xdse/internal/obs"
	"xdse/internal/perf"
)

// Options tunes a Coordinator. The zero value is usable; defaults suit a
// LAN fleet of a few workers.
type Options struct {
	// HealthInterval is the membership probe cadence. Default 1s.
	HealthInterval time.Duration
	// HedgeAfter is the straggler threshold: a dispatch attempt still
	// unanswered after this long gets one hedge to the next healthy worker,
	// and the first result wins (the loser is cancelled and ignored). 0
	// selects the 2.5s default; negative disables hedging.
	HedgeAfter time.Duration
	// Warnf, when non-nil, receives human-readable fleet events
	// (membership transitions, steals, hedges, permanent faults).
	Warnf func(format string, args ...any)
}

// defaultHedgeAfter is the straggler threshold HedgeAfter 0 selects.
const defaultHedgeAfter = 2500 * time.Millisecond

// shardPoints caps the design points of one shard. A batch is dealt into
// at least one shard per healthy worker, and into more when that would
// exceed this cap.
const shardPoints = 8

// withDefaults resolves zero fields to their documented defaults.
func (o Options) withDefaults() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = defaultHedgeAfter
	}
	if o.HedgeAfter < 0 {
		o.HedgeAfter = 0 // disabled
	}
	return o
}

// maxEvalRespBytes bounds one /eval response body (a shard's records).
const maxEvalRespBytes = 64 << 20

// maxFaults bounds the permanent-fault report so a misconfigured fleet
// cannot grow coordinator memory without bound.
const maxFaults = 64

// Coordinator shards campaign evaluation batches across a worker pool. It
// plugs into a run as a search.Problem.Prepare hook (see Prepare): purely a
// cache warmer, so every fleet failure mode degrades to local computation.
type Coordinator struct {
	opts   Options
	reg    *obs.Registry
	pool   *pool
	client *http.Client

	// version is the cost-model version workers and their records must
	// match: perf.ModelVersion().
	version string
	// maxShardHold bounds one dispatch attempt: its request runs under a
	// context deadline this far out, so a hung worker costs at most this
	// long before the shard moves on — the straggler bound.
	maxShardHold time.Duration
	// retry bounds a shard's dispatch attempts (MaxAttempts) before it falls
	// back to local evaluation, and spaces them with the deterministic
	// backoff of eval.RetryPolicy.DelayBefore.
	retry eval.RetryPolicy

	cShards    *obs.Counter // shards dispatched remotely (first attempts)
	cStolen    *obs.Counter // re-dispatches after a failed attempt
	cRetries   *obs.Counter // re-dispatches after a transient fault
	cPermanent *obs.Counter // permanent faults recorded
	cLocal     *obs.Counter // shards that fell back to local evaluation
	cInstalled *obs.Counter // records installed into the local evaluator
	cRejected  *obs.Counter // record lines dropped for a bad CRC, parse or version
	cPoints    *obs.Counter // unmemoized points offered to Prepare
	cLocalPts  *obs.Counter // offered points answered by local records alone
	cHedges    *obs.Counter // hedge dispatches launched
	cHedgeWins *obs.Counter // hedges whose result won the race

	mu            sync.Mutex
	faults        []string
	faultsDropped int // permanent faults evicted from the FIFO report
}

// New builds a Coordinator over the given worker addresses (host:port or
// full URLs), probes them once synchronously, and starts the background
// health monitor. Callers must Close it.
func New(workers []string, opts Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, errors.New("fleet: no workers given")
	}
	for _, w := range workers {
		if strings.TrimSpace(w) == "" {
			return nil, errors.New("fleet: empty worker address")
		}
	}
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	client := &http.Client{}
	c := &Coordinator{
		opts:       opts,
		reg:        reg,
		client:     client,
		cShards:    reg.Counter("fleet_shards_dispatched_total"),
		cStolen:    reg.Counter("fleet_leases_stolen_total"),
		cRetries:   reg.Counter("fleet_retries_total"),
		cPermanent: reg.Counter("fleet_permanent_faults_total"),
		cLocal:     reg.Counter("fleet_shards_local_total"),
		cInstalled: reg.Counter("fleet_records_installed_total"),
		cRejected:  reg.Counter("fleet_records_rejected_total"),
		cPoints:    reg.Counter("fleet_points_offered_total"),
		cLocalPts:  reg.Counter("fleet_points_local_total"),
		cHedges:    reg.Counter("fleet_hedges_total"),
		cHedgeWins: reg.Counter("fleet_hedge_wins_total"),

		version:      perf.ModelVersion(),
		maxShardHold: 2 * time.Minute,
		retry:        eval.RetryPolicy{MaxAttempts: 3, Backoff: 50 * time.Millisecond, BackoffCap: 2 * time.Second},
	}
	c.pool = newPool(workers, c.version, opts.HealthInterval, client, reg, opts.Warnf)
	c.pool.start()
	return c, nil
}

// Close stops the health monitor. In-flight Prepare calls should have
// finished (the campaign runner calls Close after RunCampaign returns).
func (c *Coordinator) Close() { c.pool.close() }

// Metrics returns the registry holding the fleet_* instruments, for merging
// into a campaign's metrics output.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// WorkersHealthy returns the number of currently dispatchable workers.
func (c *Coordinator) WorkersHealthy() int { return c.pool.healthyCount() }

// Faults returns the most recent permanent faults (FIFO-capped, with a
// dropped-count marker when older ones were evicted), for the campaign
// report.
func (c *Coordinator) Faults() []string {
	c.mu.Lock()
	out := make([]string, len(c.faults))
	copy(out, c.faults)
	dropped := c.faultsDropped
	c.mu.Unlock()
	if dropped > 0 {
		out = append(out, fmt.Sprintf("(+%d earlier permanent fault(s) dropped)", dropped))
	}
	return out
}

// recordFault appends a permanent fault to the report and counts it. The
// report is a FIFO of the last maxFaults entries — a week-long campaign
// against a flapping worker keeps the newest faults and a count of evicted
// ones instead of growing without bound (or freezing on the oldest).
func (c *Coordinator) recordFault(msg string) {
	c.cPermanent.Inc()
	if c.opts.Warnf != nil {
		c.opts.Warnf("fleet: permanent fault: %s", msg)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.faults) >= maxFaults {
		c.faults = c.faults[1:]
		c.faultsDropped++
	}
	c.faults = append(c.faults, msg)
}

// Prepare returns a search.Problem.Prepare hook that warms ev's record map
// from the fleet before each batch: it drops the batch's points ev can
// already answer (memoized, or every layer record local — eval.HasRecords),
// deals the rest into shards, dispatches each shard, and installs
// the returned content-addressed records. The hook is result neutral — the
// batch's evaluations run locally afterwards and are bit-identical whether
// the hook did everything, something, or nothing.
func (c *Coordinator) Prepare(ev *eval.Evaluator, model string) func(context.Context, []arch.Point) {
	cfg := ev.Config()
	base := EvalRequest{
		Protocol:     ProtocolVersion,
		ModelVersion: c.version,
		Model:        model,
		Mode:         cfg.Mode.String(),
		MapTrials:    cfg.MapTrials,
		Seed:         cfg.Seed,
	}
	known := ev.RecordStrings()
	return func(ctx context.Context, pts []arch.Point) {
		// Each point's key is built once: it dedups the batch, asks the
		// design memo and goes on the wire.
		var fresh []string
		seen := make(map[string]bool, len(pts))
		for _, pt := range pts {
			k := pt.Key()
			if seen[k] || ev.Memoized(k) {
				continue
			}
			seen[k] = true
			c.cPoints.Inc()
			if ev.HasRecords(pt) {
				c.cLocalPts.Inc()
				continue
			}
			fresh = append(fresh, k)
		}
		if len(fresh) == 0 {
			return
		}
		shards := c.shard(model, fresh)
		if len(shards) == 0 {
			// No healthy workers: the batch evaluates locally.
			return
		}
		// The batch span arrives through the context (search.EvaluateBatch
		// plants it); each shard nests a dispatch span under it, and the
		// record install closes the loop. A ctx without a span yields a nil
		// tracer, making every span operation below free.
		tr, batchSC, _ := obs.SpanFromContext(ctx)
		var wg sync.WaitGroup
		for _, sh := range shards {
			sh.known = known
			wg.Add(1)
			go func(sh shard) {
				defer wg.Done()
				dsp := tr.StartChild(batchSC, obs.SpanDispatch, sh.key)
				dsp.Points = len(sh.points)
				recs := c.runShard(obs.ContextWithSpan(ctx, tr, dsp.Context()), base, sh)
				if len(recs) > 0 {
					isp := tr.StartChild(dsp.Context(), obs.SpanInstall, sh.key)
					n := ev.InstallRecords(recs)
					isp.Points = n
					isp.End()
					c.cInstalled.Add(int64(n))
				}
				dsp.End()
			}(sh)
		}
		wg.Wait()
	}
}

// shard is one dispatchable unit: a slice of point keys and the worker to
// try first.
type shard struct {
	key    string // names the shard in spans and logs: model|first point key
	first  int    // index of the worker dealt the shard; see pool.pick
	points []string
	known  map[string]string // read-only strings its records share; see DecodeEvalBody
}

// shard deals k fresh point keys round-robin into min(k, max(h, ⌈k/8⌉))
// shards over the h healthy workers, so every healthy worker gets work,
// shard sizes differ by at most one and none exceeds shardPoints. Each
// shard is dealt to the next healthy worker under the pool's cursor.
// Returns nil when no workers are currently healthy.
func (c *Coordinator) shard(model string, keys []string) []shard {
	h := c.pool.healthyCount()
	if h == 0 {
		return nil
	}
	k := len(keys)
	out := make([]shard, min(k, max(h, (k+shardPoints-1)/shardPoints)))
	for i, key := range keys {
		sh := &out[i%len(out)]
		sh.points = append(sh.points, key)
	}
	for i := range out {
		out[i].key = model + "|" + out[i].points[0]
		out[i].first = c.pool.deal()
	}
	return out
}

// faultKind says what happened to a failed dispatch attempt.
type faultKind uint8

const (
	// faultTransient is a transport error, a timeout, a 5xx or a torn body:
	// the shard is retried and the worker charged a fault.
	faultTransient faultKind = iota
	// faultShed is a 429, a worker shedding load: backpressure, not a
	// fault. The shard is retried like a transient one, but the worker is
	// charged nothing.
	faultShed
	// faultPermanent is another 4xx or model-version skew: retrying cannot
	// heal it, so it is reported and the shard evaluates locally.
	faultPermanent
)

// dispatchError is one failed dispatch attempt: its kind, the worker's
// Retry-After hint when the worker sent one, and the underlying error. A
// hint replaces the retry schedule's delay before the next pass over the
// workers, capped at BackoffCap (see retryDelay). Hints are whole seconds,
// so a hint lengthens the schedule's 50ms first delay to 1-2s.
type dispatchError struct {
	kind faultKind
	hint time.Duration
	err  error
}

// failed builds a dispatchError of the given kind around a formatted error.
func failed(kind faultKind, format string, args ...any) *dispatchError {
	return &dispatchError{kind: kind, err: fmt.Errorf(format, args...)}
}

// Error implements error.
func (e *dispatchError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying error.
func (e *dispatchError) Unwrap() error { return e.err }

// runShard drives one shard to completion: dispatch (hedged when the attempt
// straggles), steal at once to an untried healthy worker on a transient fault
// or shed, back off (see retryDelay) only before a second pass over workers
// already tried, record permanent faults, and fall back to local evaluation
// when attempts run out or no worker remains. Returns the records to install
// (nil means the coordinator computes the shard's layers itself).
func (c *Coordinator) runShard(ctx context.Context, base EvalRequest, sh shard) []evalcache.Record {
	c.cShards.Inc()
	tried := make(map[int]bool)
	var lastErr *dispatchError
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		w, idx := c.pool.pick(sh.first, tried)
		if w == nil && len(tried) > 0 {
			// Every healthy worker was tried: back off, then a second pass.
			tried = make(map[int]bool)
			w, idx = c.pool.pick(sh.first, tried)
			if w != nil && !sleepCtx(ctx, c.retryDelay(attempt-1, lastErr)) {
				return nil
			}
		}
		if w == nil {
			c.cLocal.Inc()
			return nil
		}
		if attempt > 1 {
			c.cStolen.Inc()
			if c.opts.Warnf != nil {
				c.opts.Warnf("fleet: shard %s stolen to worker %s (attempt %d)", sh.key, w.id, attempt)
			}
		}
		recs, faultW, err := c.dispatchHedged(ctx, base, sh, w, idx, tried)
		if err == nil {
			return recs
		}
		if err.kind == faultPermanent {
			c.recordFault(fmt.Sprintf("shard %s on worker %s: %v", sh.key, faultW.id, err))
			c.cLocal.Inc()
			return nil
		}
		if attempt >= c.retry.MaxAttempts {
			c.cLocal.Inc()
			return nil
		}
		c.cRetries.Inc()
		c.workerCounter("fleet_worker_retries_total", faultW.id).Inc()
		lastErr = err
	}
}

// retryDelay resolves the sleep before a second pass over the workers: the
// deterministic exponential schedule, or, when the last fault carried the
// worker's Retry-After hint, that hint in its place. The hint is capped at
// BackoffCap, so a worker advertising a huge hold-off cannot stall a shard
// past the schedule's own bound.
func (c *Coordinator) retryDelay(attempt int, err *dispatchError) time.Duration {
	if err != nil && err.hint > 0 {
		return min(err.hint, c.retry.BackoffCap)
	}
	return c.retry.DelayBefore(attempt)
}

// attemptResult is one dispatch attempt's outcome inside dispatchHedged.
type attemptResult struct {
	recs  []evalcache.Record
	err   *dispatchError
	w     *worker
	idx   int
	hedge bool
}

// dispatchHedged performs one logical dispatch attempt of sh on w, hedging
// to the next healthy worker if the attempt is still unanswered after the
// HedgeAfter threshold. The first complete result wins; the loser's context
// is cancelled to free the connection, and whatever it still returns is
// ignored. Hedging is safe by the same argument as work stealing: workers
// return only content-addressed records, so duplicated work can never change
// the merge, only waste a worker's time — which is exactly the trade a
// straggler rescue wants.
//
// Returns the winning records and the worker to blame for the returned error
// (nil error: the winner). Accounting per attempted worker — fault or shed
// counters, the health fault count, tried-set marking — happens here,
// because only this function knows which workers actually dispatched. A 429
// shed is backpressure: the worker is marked tried and counted in
// fleet_worker_shed_total, but is charged no fault.
func (c *Coordinator) dispatchHedged(ctx context.Context, base EvalRequest, sh shard, w *worker, idx int, tried map[int]bool) ([]evalcache.Record, *worker, *dispatchError) {
	tr, dispatchSC, _ := obs.SpanFromContext(ctx)

	results := make(chan attemptResult, 2)
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()

	run := func(actx context.Context, aw *worker, aidx int, hedge bool) {
		recs, err := c.dispatch(actx, base, sh, aw)
		results <- attemptResult{recs: recs, err: err, w: aw, idx: aidx, hedge: hedge}
	}
	go run(pctx, w, idx, false)
	inflight := 1

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if c.opts.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(c.opts.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var hsp obs.Span // the hedge attempt's covering span
	var winner attemptResult
	haveWinner := false
	var transientErr, permanentErr *dispatchError
	var transientW, permanentW *worker

	for inflight > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil // at most one hedge per attempt
			ex := map[int]bool{idx: true}
			for k := range tried {
				ex[k] = true
			}
			hw, hidx := c.pool.pick(sh.first, ex)
			if hw == nil {
				continue
			}
			c.cHedges.Inc()
			c.workerCounter("fleet_worker_hedges_total", hw.id).Inc()
			if c.opts.Warnf != nil {
				c.opts.Warnf("fleet: shard %s straggling on worker %s; hedging to %s", sh.key, w.id, hw.id)
			}
			hsp = tr.StartChild(dispatchSC, obs.SpanHedge, sh.key)
			hsp.Worker = hw.id
			hsp.Points = len(sh.points)
			go run(obs.ContextWithSpan(hctx, tr, hsp.Context()), hw, hidx, true)
			inflight++

		case res := <-results:
			inflight--
			if res.hedge {
				if res.err != nil {
					hsp.Err = res.err.Error()
				}
				hsp.End()
			}
			if haveWinner {
				// The race is decided; this is the cancelled loser. It lost
				// to our own cancellation, not to its own health: no fault.
				continue
			}
			c.pool.dispatched(res.w, res.err)
			switch {
			case res.err == nil:
				winner, haveWinner = res, true
				// Decide the race for the other attempt, if any.
				if res.hedge {
					pcancel()
				} else {
					hcancel()
				}
			case res.err.kind == faultShed:
				c.workerCounter("fleet_worker_shed_total", res.w.id).Inc()
				tried[res.idx] = true
				if transientErr == nil {
					transientErr, transientW = res.err, res.w
				}
			default:
				c.workerCounter("fleet_worker_faults_total", res.w.id).Inc()
				tried[res.idx] = true
				if res.err.kind == faultPermanent {
					permanentErr, permanentW = res.err, res.w
				} else if transientErr == nil {
					transientErr, transientW = res.err, res.w
				}
			}
		}
	}
	if haveWinner {
		if winner.hedge {
			c.cHedgeWins.Inc()
		}
		return winner.recs, winner.w, nil
	}
	if permanentErr != nil {
		return nil, permanentW, permanentErr
	}
	return nil, transientW, transientErr
}

// workerCounter returns the per-worker-attributed variant of a fleet
// counter, labeled by worker address — how a flapping worker becomes
// visible in /metrics instead of only in Faults at exit.
func (c *Coordinator) workerCounter(name, worker string) *obs.Counter {
	return c.reg.Counter(name + `{worker="` + worker + `"}`)
}

// sleepCtx sleeps for d unless ctx ends first; reports whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// dispatch performs one attempt of sh on w under the maxShardHold deadline:
// a worker that has not answered by then has its request cancelled, and the
// attempt fails as a transient fault.
func (c *Coordinator) dispatch(ctx context.Context, base EvalRequest, sh shard, w *worker) (recs []evalcache.Record, err *dispatchError) {
	req := base
	req.Points = sh.points

	// One rpc span per attempt, nested under the shard's dispatch span
	// (planted on ctx by Prepare). Its context rides the trace header to
	// the worker, whose own spans come back in resp.Spans already parented
	// under it — the cross-process merge point.
	tr, dispatchSC, _ := obs.SpanFromContext(ctx)
	rpc := tr.StartChild(dispatchSC, obs.SpanRPC, sh.key)
	rpc.Worker = w.id
	rpc.Points = len(sh.points)
	defer func() {
		if err != nil {
			rpc.Err = err.Error()
		}
		rpc.End()
	}()

	actx, cancel := context.WithTimeout(ctx, c.maxShardHold)
	defer cancel()
	body, err := c.postEval(actx, w, req, rpc.Context())
	if err != nil {
		return nil, err
	}
	hdr, recs, rejected, derr := DecodeEvalBody(body, c.version, sh.known)
	if derr != nil {
		// A torn or unreadable body is transient, like a dropped connection.
		return nil, failed(faultTransient, "worker %s: decode response: %w", w.id, derr)
	}
	if hdr.ModelVersion != c.version {
		c.pool.mark(w, workerQuarantined, fmt.Sprintf("response model version %q, want %q", hdr.ModelVersion, c.version))
		return nil, failed(faultPermanent, "worker %s: response model version %q, want %q", w.id, hdr.ModelVersion, c.version)
	}
	// The result is accepted: merge the worker-side spans into the local
	// trace. Spans of discarded (timed-out, errored, skewed) results never
	// merge, mirroring the record-install rule.
	for _, sev := range hdr.Spans {
		tr.Forward(sev)
	}
	// A corrupt or skewed record line was dropped, not fatal: the
	// coordinator recomputes that layer locally. Counting the drops keeps a
	// decoder that refuses valid lines from passing for a slow campaign.
	c.cRejected.Add(int64(rejected))
	return recs, nil
}

// parseRetryAfter reads a Retry-After header as delay seconds. HTTP-date
// values (the other legal form) are ignored — honoring them would couple the
// backoff to wall-clock skew between coordinator and worker.
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// postEval performs the HTTP round trip for one shard and returns the body of
// a 200 for DecodeEvalBody. Any other outcome is a dispatchError: a transport
// error or 5xx is transient, a 429 a shed (both carrying the worker's
// Retry-After hint when present), a 412 quarantines the worker (permanent),
// and any other status is permanent. A non-zero span context rides the
// obs.TraceHeader so the worker links its spans under ours.
func (c *Coordinator) postEval(ctx context.Context, w *worker, req EvalRequest, sc obs.SpanContext) ([]byte, *dispatchError) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, failed(faultPermanent, "encode request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/eval", bytes.NewReader(body))
	if err != nil {
		return nil, failed(faultPermanent, "build request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if sc.Span != "" {
		hreq.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(sc))
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, failed(faultTransient, "worker %s: %w", w.id, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, failed(faultTransient, "worker %s: read response: %w", w.id, err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return data, nil
	case resp.StatusCode == http.StatusPreconditionFailed:
		c.pool.mark(w, workerQuarantined, "eval handshake: "+strings.TrimSpace(string(data)))
		return nil, failed(faultPermanent, "worker %s: model version skew: %s", w.id, strings.TrimSpace(string(data)))
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		e := failed(faultTransient, "worker %s: status %d", w.id, resp.StatusCode)
		if resp.StatusCode == http.StatusTooManyRequests {
			e.kind = faultShed
		}
		e.hint = parseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, e
	default:
		return nil, failed(faultPermanent, "worker %s: status %d: %s", w.id, resp.StatusCode, strings.TrimSpace(string(data)))
	}
}

// readBody reads a response body, at most maxEvalRespBytes of it, into one
// buffer sized from its Content-Length; a body without one (a chaos-mutated
// one, say) is read by growing a buffer. A body that ends short of its
// Content-Length is an error.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxEvalRespBytes {
		return io.ReadAll(io.LimitReader(resp.Body, maxEvalRespBytes))
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}
