// Package serve turns the one-shot exploration CLI into a long-running,
// failure-tolerant DSE job service. Campaign jobs are submitted over HTTP,
// admitted into a bounded queue (submissions beyond capacity are shed with
// 429 + Retry-After instead of degrading in-flight work), and executed
// through the exp.RunOne stack under per-job context deadlines and panic
// containment. Every job journals its evaluations via internal/checkpoint,
// so the service stays correct under failure:
//
//   - SIGTERM drains gracefully: readiness flips to 503, in-flight jobs
//     stop at their next batch boundary with their checkpoints flushed,
//     queued jobs stay queued on disk, and the process exits 0.
//   - On boot the daemon rescans its job directory and resumes every
//     non-terminal job; the resumed result is bit-identical to an
//     uninterrupted run's, proven by search.Trace.Fingerprint.
//   - Transient evaluation faults (contained crashes, watchdog timeouts,
//     injected flakes) are healed by eval's deterministic retry layer and
//     never reach a job's memo, journal, or result.
//
// Observability: /healthz (liveness), /readyz (503 while draining), and
// /metrics, which serves the service counters merged with every run's
// evaluator registry as a self-validated Prometheus text dump.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"xdse/internal/eval"
	"xdse/internal/evalcache"
	"xdse/internal/exp"
	"xdse/internal/fleet"
	"xdse/internal/obs"
	"xdse/internal/workload"
)

// Cancellation causes, distinguished by context.Cause so the worker can map
// an interrupted run to the right terminal (or resumable) status.
var (
	errCancelled = errors.New("job cancelled by client")
	errDraining  = errors.New("daemon draining")
	errDeadline  = errors.New("job deadline exceeded")
)

// Options configures a Server. The zero value of every field selects a
// sensible default; only Dir is required.
type Options struct {
	// Dir is the job root directory: one subdirectory per job holding
	// job.json, the run's checkpoint journal, and its CSV trace. Required.
	Dir string
	// QueueCap bounds the admission queue (default 16). Submissions that
	// find it full are shed with 429 + Retry-After.
	QueueCap int
	// MaxConcurrent is the global job concurrency: the number of worker
	// goroutines executing jobs (default 2).
	MaxConcurrent int
	// MaxJobWorkers caps each job's per-evaluation worker pool (default
	// 4); JobSpec.Workers above it is clamped, 0 selects 1 (deterministic).
	MaxJobWorkers int
	// DefaultDeadline bounds jobs that set no deadline of their own
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// RetryAfter is the client back-off hint attached to shed (429) and
	// draining (503) responses (default 2s).
	RetryAfter time.Duration
	// Retry is the evaluation-level transient-fault retry policy applied
	// to every job. The zero value selects eval.DefaultRetry; set
	// MaxAttempts to 1 to disable retries explicitly.
	Retry eval.RetryPolicy
	// EvalTimeout arms each evaluation's watchdog (see eval.Config);
	// timeouts classify transient and are healed by Retry.
	EvalTimeout time.Duration
	// EvalConcurrent bounds concurrently served fleet shards (POST /eval);
	// requests beyond it are shed with 429 + Retry-After so a coordinator
	// tries another worker instead of waiting in a queue (default 2).
	EvalConcurrent int
	// Chaos, when non-nil (and non-empty), deterministically injects
	// faults into this worker's POST /eval surface — dropped connections,
	// delays, injected statuses, truncated/corrupted response bodies — by
	// request ordinal (see fleet.ChaosPolicy). It is the fleet's only
	// fault-injection point, driven by the chaos-smoke CI job and
	// resilience tests. Production deployments leave it nil.
	Chaos *fleet.ChaosPolicy
	// CacheDir, when non-empty, opens the cross-run persistent evaluation
	// store (internal/evalcache) there and shares it across every job: a
	// resubmitted or related job answers repeated layer searches from disk
	// with bit-identical results. An unopenable store is reported through
	// Warnf and the daemon runs uncached.
	CacheDir string
	// Trace, when non-nil, receives the daemon's own span events: the
	// worker-side spans of traced /eval shards (also returned to the
	// coordinator in the response). The sink's lifetime belongs to the
	// caller.
	Trace obs.Sink
	// Debug mounts the runtime profiling surface — GET /debug/pprof/* and
	// GET /debug/vars — on Handler. Off by default: profiling endpoints
	// can stall the process (a CPU profile blocks for its duration) and
	// expose internals, so enabling them is an explicit operator decision.
	Debug bool
	// RuntimeSample is the cadence of the runtime sampler folding
	// goroutine/heap/GC readings into /metrics (default 10s; negative
	// disables sampling).
	RuntimeSample time.Duration
	// Warnf receives non-fatal service warnings (default: stderr).
	Warnf func(format string, args ...any)
}

// withDefaults resolves the zero-value fields.
func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.MaxJobWorkers <= 0 {
		o.MaxJobWorkers = 4
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 2 * time.Second
	}
	if o.EvalConcurrent <= 0 {
		o.EvalConcurrent = 2
	}
	if o.Retry == (eval.RetryPolicy{}) {
		o.Retry = eval.DefaultRetry()
	}
	if o.RuntimeSample == 0 {
		o.RuntimeSample = 10 * time.Second
	}
	if o.Warnf == nil {
		o.Warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
		}
	}
	return o
}

// Server is the DSE job daemon: a bounded queue feeding a fixed worker
// pool, a job registry persisted under Options.Dir, and the HTTP surface of
// Handler. Construct with New, serve with Start (or mount Handler on an
// external server and call StartWorkers), and stop with Drain.
type Server struct {
	opts    Options
	reg     *obs.Registry // service-level counters/gauges
	jobsReg *obs.Registry // per-run evaluator registries, merged as runs finish

	cSubmitted, cShed, cCompleted, cFailed     *obs.Counter
	cCancelled, cInterrupted, cDeadlineCount   *obs.Counter
	cRecovered, cResumedRuns                   *obs.Counter
	cEvalShards, cEvalPoints, cEvalRecords     *obs.Counter
	cEvalShed                                  *obs.Counter
	gQueue, gRunning, gDraining, gEvalInflight *obs.Gauge
	hJobWait, hEvalWait                        *obs.Histogram

	sampler *obs.RuntimeSampler

	// chaos, when non-nil, injects Options.Chaos faults around POST /eval.
	chaos *fleet.ChaosInjector

	// faults, when non-nil, builds a per-job deterministic fault-injection
	// policy. Only in-package tests set it, between New and StartWorkers.
	faults func(id string, spec JobSpec) *eval.FaultPolicy

	// Fleet-worker state: shard admission semaphore and the bounded pool of
	// per-configuration evaluators behind POST /eval (see eval_endpoint.go).
	evalSem   chan struct{}
	evalMu    sync.Mutex
	evalPool  map[evalPoolKey]*eval.Evaluator
	evalOrder []evalPoolKey

	drainCtx    context.Context // parent of every job context; cancelled by Drain
	drainCancel context.CancelCauseFunc

	cache *evalcache.Store // shared cross-run store (nil when CacheDir unset)

	mu        sync.Mutex
	jobs      map[string]*Job
	seq       int
	running   int
	draining  bool
	recovered []*Job // non-terminal jobs found at boot, enqueued by StartWorkers

	queue   chan *Job
	stop    chan struct{} // closed by Drain to release idle workers
	wg      sync.WaitGroup
	started bool

	ln   net.Listener
	http *http.Server
}

// New builds a Server over a job directory, rescanning it for jobs from a
// previous incarnation: terminal jobs are kept as queryable history, and
// queued, running (the hard-crash signature), or interrupted (the drain
// signature) jobs are reset to queued for resume once workers start.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("serve: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		opts:    opts,
		reg:     reg,
		jobsReg: obs.NewRegistry(),

		cSubmitted:     reg.Counter("serve_jobs_submitted_total"),
		cShed:          reg.Counter("serve_jobs_shed_total"),
		cCompleted:     reg.Counter("serve_jobs_completed_total"),
		cFailed:        reg.Counter("serve_jobs_failed_total"),
		cCancelled:     reg.Counter("serve_jobs_cancelled_total"),
		cInterrupted:   reg.Counter("serve_jobs_interrupted_total"),
		cDeadlineCount: reg.Counter("serve_jobs_deadline_total"),
		cRecovered:     reg.Counter("serve_jobs_recovered_total"),
		cResumedRuns:   reg.Counter("serve_runs_resumed_total"),
		gQueue:         reg.Gauge("serve_queue_depth"),
		gRunning:       reg.Gauge("serve_jobs_running"),
		gDraining:      reg.Gauge("serve_draining"),
		hJobWait:       reg.Histogram("serve_job_queue_wait_seconds", obs.DurationBuckets()),

		jobs:     make(map[string]*Job),
		queue:    make(chan *Job, opts.QueueCap),
		stop:     make(chan struct{}),
		evalSem:  make(chan struct{}, opts.EvalConcurrent),
		evalPool: make(map[evalPoolKey]*eval.Evaluator),
	}
	s.chaos = opts.Chaos.NewInjector(reg)
	s.evalEndpointMetrics(reg)
	s.sampler = obs.NewRuntimeSampler(reg, opts.RuntimeSample)
	s.drainCtx, s.drainCancel = context.WithCancelCause(context.Background())
	if opts.CacheDir != "" {
		store, err := evalcache.Open(opts.CacheDir, evalcache.Options{Warnf: opts.Warnf})
		if err != nil {
			opts.Warnf("persistent cache %s unavailable, running uncached: %v", opts.CacheDir, err)
		} else {
			s.cache = store
		}
	}
	if err := s.rescan(); err != nil {
		return nil, err
	}
	return s, nil
}

// rescan loads every job directory under Dir, rebuilding the registry and
// collecting non-terminal jobs for resume.
func (s *Server) rescan() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic resume order
	for _, name := range names {
		dir := filepath.Join(s.opts.Dir, name)
		j, err := loadJob(dir, s.opts.Warnf)
		if err != nil {
			if !os.IsNotExist(err) {
				s.opts.Warnf("skipping %s: %v", dir, err)
			}
			continue
		}
		s.jobs[j.ID] = j
		var n int
		if _, err := fmt.Sscanf(j.ID, "job-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		if !j.status.terminal() {
			j.setStatus(StatusQueued, "recovered at boot")
			s.recovered = append(s.recovered, j)
			s.cRecovered.Inc()
		}
	}
	return nil
}

// StartWorkers launches the worker pool and re-enqueues jobs recovered at
// boot. It is called by Start; call it directly only when mounting Handler
// on an external HTTP server (tests do this via httptest).
func (s *Server) StartWorkers() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	recovered := s.recovered
	s.recovered = nil
	s.mu.Unlock()

	s.wg.Add(s.opts.MaxConcurrent)
	for i := 0; i < s.opts.MaxConcurrent; i++ {
		go s.worker()
	}
	if s.sampler != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.sampler.Run(s.stop)
		}()
	}
	// Recovered jobs may outnumber the queue cap, so enqueue from a
	// goroutine that a drain can interrupt; workers consume as they go.
	if len(recovered) > 0 {
		go func() {
			for _, j := range recovered {
				j.enqueuedAt = time.Now()
				select {
				case s.queue <- j:
					s.gQueue.Set(float64(len(s.queue)))
				case <-s.stop:
					return
				}
			}
		}()
	}
}

// Start listens on addr, launches the workers, and serves the HTTP API in
// the background. Use Addr for the bound address (addr may use port 0).
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.http = &http.Server{Handler: s.Handler()}
	s.StartWorkers()
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.opts.Warnf("http: %v", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Draining reports whether the server is shutting down (readyz is 503 and
// submissions are refused).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the daemon down gracefully: readiness flips to 503, new
// submissions are refused, every in-flight job's context is cancelled so it
// checkpoints at its next batch boundary and persists as interrupted,
// queued jobs stay queued on disk, and the HTTP listener closes once the
// workers have exited. A subsequent boot over the same directory resumes
// every non-terminal job. Idempotent; ctx bounds how long to wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.gDraining.Set(1)
	if !already {
		// Cancelling the shared parent reaches every running job — and any
		// job a worker is about to start — with the drain cause.
		s.drainCancel(errDraining)
		close(s.stop)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out with jobs still stopping: %w", ctx.Err())
	}
	if s.http != nil {
		return s.http.Shutdown(ctx)
	}
	return nil
}

// worker executes jobs from the queue until drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.gQueue.Set(float64(len(s.queue)))
			s.runJob(j)
		}
	}
}

// runJob executes one job end to end: context construction (drain parent,
// per-job cancel, deadline), the panic-contained run, and the mapping of
// the outcome onto the job's persisted terminal state.
func (s *Server) runJob(j *Job) {
	if s.drainCtx.Err() != nil {
		// Popped mid-drain: leave it queued on disk for the next boot.
		return
	}
	if !j.enqueuedAt.IsZero() {
		s.hJobWait.ObserveDuration(time.Since(j.enqueuedAt))
	}
	ctx, cancel := context.WithCancelCause(s.drainCtx)
	defer cancel(nil)
	if d := j.Spec.deadline(s.opts.DefaultDeadline); d > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeoutCause(ctx, d, errDeadline)
		defer tcancel()
	}
	if !j.start(cancel) {
		return // cancelled while queued
	}
	s.mu.Lock()
	s.running++
	s.gRunning.Set(float64(s.running))
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.gRunning.Set(float64(s.running))
		s.mu.Unlock()
	}()

	run, panicked := s.execute(ctx, j)
	if run.Resumed > 0 {
		s.cResumedRuns.Inc()
	}
	// Count before publishing the terminal status: a client that sees the
	// job finish must also see it in /metrics.
	cause := context.Cause(ctx)
	switch {
	case panicked != "":
		s.cFailed.Inc()
		j.finish(StatusFailed, panicked, nil)
	case run.Interrupted && errors.Is(cause, errDraining):
		s.cInterrupted.Inc()
		j.finish(StatusInterrupted, "drained; resumable from checkpoint", nil)
	case run.Interrupted && errors.Is(cause, errCancelled):
		s.cCancelled.Inc()
		j.finish(StatusCancelled, "cancelled by client", nil)
	case run.Interrupted && errors.Is(cause, errDeadline):
		s.cDeadlineCount.Inc()
		j.finish(StatusDeadline, fmt.Sprintf("deadline %v exceeded", j.Spec.deadline(s.opts.DefaultDeadline)), nil)
	case run.Interrupted:
		s.cInterrupted.Inc()
		j.finish(StatusInterrupted, "interrupted; resumable from checkpoint", nil)
	case run.Err != "":
		s.cFailed.Inc()
		j.finish(StatusFailed, run.Err, nil)
	default:
		s.cCompleted.Inc()
		j.finish(StatusDone, "", resultOf(run))
	}
}

// execute runs the job through exp.RunOne with last-resort panic
// containment: per-job isolation is a service invariant, so even a panic
// outside the evaluation layer's own envelopes fails only this job.
func (s *Server) execute(ctx context.Context, j *Job) (run exp.Run, panicked string) {
	defer func() {
		if rec := recover(); rec != nil {
			panicked = fmt.Sprintf("job panic: %v", rec)
		}
	}()
	tech, _ := exp.TechniqueByName(j.Spec.Technique) // validated at admission
	model := workload.ByName(j.Spec.Model)
	cfg := s.jobConfig(j)
	return exp.RunOne(ctx, cfg, tech, model, j.Spec.Budget), ""
}

// jobConfig maps a job onto the exp.Config its run uses. The checkpoint
// journal and CSV trace live inside the job's directory; Resume is always
// true so a rerun after drain or crash replays the journal (an empty
// directory degenerates to a fresh run).
func (s *Server) jobConfig(j *Job) exp.Config {
	cfg := exp.Default()
	cfg.Out = io.Discard
	cfg.Seed = 1
	if j.Spec.Seed != 0 {
		cfg.Seed = j.Spec.Seed
	}
	if j.Spec.MapTrials > 0 {
		cfg.MapTrials = j.Spec.MapTrials
	}
	workers := j.Spec.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > s.opts.MaxJobWorkers {
		workers = s.opts.MaxJobWorkers
	}
	cfg.Workers = workers
	cfg.CheckpointDir = filepath.Join(j.dir, "checkpoint")
	cfg.Resume = true
	csvDir := filepath.Join(j.dir, "csv")
	if err := os.MkdirAll(csvDir, 0o755); err == nil {
		cfg.CSVDir = csvDir
	} else {
		s.opts.Warnf("job %s: csv dir: %v", j.ID, err)
	}
	cfg.EvalTimeout = s.opts.EvalTimeout
	cfg.Retry = s.opts.Retry
	cfg.Metrics = s.jobsReg
	cfg.Cache = s.cache
	if s.faults != nil {
		cfg.Faults = s.faults(j.ID, j.Spec)
	}
	return cfg
}

// resultOf projects a completed run onto the persisted JobResult.
func resultOf(run exp.Run) *JobResult {
	res := &JobResult{
		Fingerprint:   run.Trace.Fingerprint(),
		BestObjective: obs.Float(run.Trace.BestObjective()),
		Feasible:      run.Trace.Best != nil,
		Evaluations:   run.Evaluations,
		Steps:         len(run.Trace.Steps),
		Resumed:       run.Resumed,
		Retries:       run.Stats.Retries,
		ElapsedMs:     run.Elapsed.Milliseconds(),
	}
	if run.Trace.Best != nil {
		res.BestKey = run.Trace.Best.Key()
	}
	return res
}

// submit admits a validated spec: the job is persisted as queued first (so
// a crash between persist and enqueue is recovered at next boot, never
// lost) and then offered to the bounded queue without blocking — a full
// queue sheds the job instead of stalling the daemon or its callers.
func (s *Server) submit(spec JobSpec) (*Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	j := &Job{ID: id, Spec: spec, dir: filepath.Join(s.opts.Dir, id),
		warnf: s.opts.Warnf, status: StatusQueued}
	s.jobs[id] = j
	s.mu.Unlock()

	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		s.dropJob(j)
		return nil, fmt.Errorf("serve: create job dir: %w", err)
	}
	j.setStatus(StatusQueued, "")
	j.enqueuedAt = time.Now()
	select {
	case s.queue <- j:
		s.gQueue.Set(float64(len(s.queue)))
		s.cSubmitted.Inc()
		return j, nil
	default:
		// Shed: undo the admission so the job is not resumed at next boot.
		s.dropJob(j)
		os.RemoveAll(j.dir)
		s.cShed.Inc()
		return nil, errShed
	}
}

// errShed marks a submission refused because the queue is full.
var errShed = errors.New("job queue full")

// dropJob removes a never-ran job from the registry (shed or failed setup).
func (s *Server) dropJob(j *Job) {
	s.mu.Lock()
	delete(s.jobs, j.ID)
	s.mu.Unlock()
}

// job looks a job up by ID.
func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobList returns every known job, sorted by ID.
func (s *Server) jobList() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// mergedMetrics snapshots the service registry merged with every run's
// evaluator registry into a fresh registry, ready for a Prometheus dump.
func (s *Server) mergedMetrics() *obs.Registry {
	s.gQueue.Set(float64(len(s.queue)))
	m := obs.NewRegistry()
	m.Merge(s.reg)
	m.Merge(s.jobsReg)
	s.evalMu.Lock()
	for _, key := range s.evalOrder {
		// Live fleet-shard evaluators; evicted ones already folded into
		// jobsReg at eviction time.
		m.Merge(s.evalPool[key].Metrics())
	}
	s.evalMu.Unlock()
	if s.cache != nil {
		m.Merge(s.cache.Metrics())
	}
	return m
}
