// Package eval wires the substrates together into the system-under-DSE of
// §4.2: for a hardware design point it optimizes (or fixes) the mapping of
// every unique layer of the target workloads, evaluates latency through the
// analytical performance model, area/power through the energy model, checks
// the Table 1 constraints, and reports per-layer breakdowns at sub-function
// granularity — the interface every DSE technique in this repository
// explores through.
package eval

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xdse/internal/arch"
	"xdse/internal/energy"
	"xdse/internal/evalcache"
	"xdse/internal/mapping"
	"xdse/internal/obs"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// MapperMode selects the software half of the codesign.
type MapperMode int

const (
	// FixedDataflow uses the output-stationary SOC-MOP schema for every
	// layer (the paper's fixed-dataflow baseline setting).
	FixedDataflow MapperMode = iota
	// RandomMappings optimizes each layer with Timeloop-like random
	// search over the pruned mapping space (black-box codesign setting).
	RandomMappings
	// PrunedMappings optimizes each layer with the dMazeRunner-style
	// pruned linear enumeration (Explainable-DSE codesign setting).
	PrunedMappings
)

// String names the mapper mode. Out-of-range values — reachable through a
// corrupted or hand-edited job spec rescanned at daemon boot — render as
// "unknown(n)" instead of panicking.
func (m MapperMode) String() string {
	names := [...]string{"fixed-dataflow", "random-mappings", "pruned-mappings"}
	if m < 0 || int(m) >= len(names) {
		return fmt.Sprintf("unknown(%d)", int(m))
	}
	return names[m]
}

// Objective selects the cost the DSE minimizes. The paper develops latency
// as its running example (§4.7) and notes the bottleneck-model API carries
// over to other costs; the energy objective exercises that generality with
// an additive energy bottleneck tree (see accelmodel.EnergyTree).
type Objective int

const (
	// MinLatency minimizes the summed workload latency (ms).
	MinLatency Objective = iota
	// MinEnergy minimizes the summed inference energy (mJ), still
	// subject to all Table 1 constraints including throughput.
	MinEnergy
)

// String names the objective, rendering out-of-range values as "unknown(n)".
func (o Objective) String() string {
	names := [...]string{"min-latency", "min-energy"}
	if o < 0 || int(o) >= len(names) {
		return fmt.Sprintf("unknown(%d)", int(o))
	}
	return names[o]
}

// Constraints are the inequality constraints of the exploration (Table 1).
// The latency ceiling is taken per model from the workload definitions.
type Constraints struct {
	MaxAreaMM2 float64
	MaxPowerW  float64
}

// EdgeConstraints returns the Table 1 constraint thresholds.
func EdgeConstraints() Constraints {
	return Constraints{MaxAreaMM2: 75, MaxPowerW: 4}
}

// DefaultCacheCap bounds the design-level memo entry count. It is far above
// any campaign budget in this repository, so eviction only engages on very
// long-running explorations. The record map of installed layer decisions is
// bounded at 8x this cap. Unique-design budget accounting is exact under
// eviction: re-evaluating an evicted design is counted as a recompute, never
// as a new unique evaluation.
const DefaultCacheCap = 32768

// Config parameterizes an Evaluator.
type Config struct {
	Space       *arch.Space
	Models      []*workload.Model
	Constraints Constraints
	Mode        MapperMode
	// Objective selects the minimized cost (default MinLatency).
	Objective Objective
	// MapTrials is the per-layer mapping search budget in optimized
	// modes (the paper uses 10,000 for black-box mappers and an
	// auto-adjusted top-N space for dMazeRunner).
	MapTrials int
	Seed      int64
	// Workers bounds mapping-search parallelism and sizes the batch
	// evaluation pool of Problem (0 = NumCPU, max 4 as in the paper's
	// evaluation setup).
	Workers int
	// PersistCache, when non-nil, is the cross-run persistent evaluation
	// cache (internal/evalcache), slotted under the record map of installed
	// fleet records: layer searches no installed record answers are looked
	// up in the store before the cost model runs, and fresh decisions are
	// appended for future runs, other processes and twin designs. Results
	// are bit-identical with or without it — a persist hit replays the exact
	// decision a cold search would reach. The caller opens the store; the serve daemon shares one
	// across every job's evaluator.
	PersistCache *evalcache.Store
	// EvalTimeout, when positive, arms a per-evaluation watchdog: a design
	// whose evaluation (mapping search included) exceeds the deadline is
	// charged and memoized as infeasible-with-error instead of hanging the
	// campaign. The abandoned computation is left to finish in the
	// background; its store writes remain valid (they are deterministic),
	// only its design result is discarded.
	EvalTimeout time.Duration
	// Faults, when non-nil, deterministically injects failures (panics,
	// errors, delays) at chosen unique-evaluation ordinals — the
	// fault-injection hook the resilience tests drive.
	Faults *FaultPolicy
	// Retry configures the transient-fault retry layer: attempts that fail
	// with a ClassTransient error (a recovered panic, a watchdog timeout,
	// an injected flaky fault) are retried with a capped, deterministic,
	// jitter-free backoff instead of being memoized as infeasible. Only
	// permanent failures — including transient ones that exhausted the
	// attempt budget — are charged, memoized, and journaled. The zero
	// value disables retries (one attempt; every failure is final).
	Retry RetryPolicy
}

// LayerEval is one layer's evaluation on a design.
type LayerEval struct {
	Layer   workload.Layer
	Mapping mapping.Mapping
	Perf    perf.Breakdown
	// TotalCycles is Perf.Cycles times the layer multiplicity.
	TotalCycles float64
	// EnergyMJ is the layer's inference energy (multiplicity included).
	EnergyMJ float64
	// MapTrials is the number of mappings examined for this layer.
	MapTrials int
	// Found is the layer decision's found bit: the search found a mapping.
	// Perf.Valid cannot stand in for it, because FixedDataflow's one mapping
	// counts as found even when it is invalid.
	Found bool
}

// ModelEval is one workload's evaluation on a design.
type ModelEval struct {
	Model *workload.Model
	// Layers has one entry per unique layer, in model order.
	Layers []LayerEval
	// Cycles is the whole-network latency in cycles.
	Cycles float64
	// LatencyMs is the whole-network latency in milliseconds.
	LatencyMs float64
	// MeetsThroughput reports the model's latency-ceiling constraint.
	MeetsThroughput bool
	// Incompatible reports that some layer had no valid mapping on this
	// design (a hardware/mapping incompatibility, §6.2).
	Incompatible bool
	// IncompatSeverity is the mean number of incompatibilities per
	// layer; the constraint budget uses it so partially fixing an
	// incompatible design still reads as progress toward feasibility.
	IncompatSeverity float64
	// EnergyMJ is the inference energy in millijoules.
	EnergyMJ float64
}

// Result is the full evaluation of one design point.
type Result struct {
	Point  arch.Point
	Design arch.Design
	Energy energy.Estimate

	Models []ModelEval

	// LatencyMs is the summed latency of all target workloads (infinite
	// when any mapping is incompatible).
	LatencyMs float64
	// EnergyMJ is the summed inference energy of all target workloads.
	EnergyMJ float64
	// Objective is the minimized cost value (latency or energy,
	// depending on the evaluator's configured objective).
	Objective float64
	AreaMM2   float64
	PowerW    float64

	// Feasible reports that area, power, and every model's throughput
	// constraint hold and every layer found a compatible mapping.
	Feasible bool
	// MeetsAreaPower reports the area and power constraints alone
	// (the Fig. 12 feasibility notion without throughput).
	MeetsAreaPower bool
	// Violations lists human-readable violated constraints.
	Violations []string
	// BudgetUtil is the §4.6 constraints budget: the mean of utilized
	// constraint values normalized to their thresholds.
	BudgetUtil float64
	// MapEvaluations counts mapping candidates examined for this design.
	MapEvaluations int
	// Err, when non-empty, explains why the evaluation failed outright (a
	// recovered panic, an injected fault, a malformed point, a watchdog
	// timeout, or cancellation). Errored results are always infeasible.
	Err string
	// ErrClass classifies Err for the retry layer: ClassNone on success,
	// otherwise ClassPermanent — every failure an Evaluate caller can
	// observe has already survived (or was never eligible for) the retry
	// loop, so ClassTransient never escapes except on Cancelled results.
	ErrClass ErrClass
	// Attempts is the number of evaluation attempts this result consumed
	// (above 1 exactly when transient failures were retried).
	Attempts int
	// Cancelled reports the evaluation was abandoned because its context
	// was cancelled. Cancelled results are never cached, never journaled,
	// and never charged against the unique-design budget — re-evaluating
	// the point after resume redoes the work from scratch.
	Cancelled bool
}

// Evaluator evaluates design points with memoization and counts unique
// design evaluations (the DSE iteration currency of the paper). It is safe
// for concurrent use: the memo cache is lock-protected and concurrent
// misses on the same point are deduplicated singleflight-style, so a batch
// of workers racing to the same key computes it exactly once.
type Evaluator struct {
	cfg    Config
	emodel energy.Model

	mu sync.Mutex
	// cache is the design memo, bounded at DefaultCacheCap.
	cache   fifoMap[string, *Result]
	flights map[string]*flight
	// seen records every design key ever evaluated and is never evicted,
	// so unique-design budget accounting stays exact under eviction.
	seen map[string]bool

	// slots are the distinct layer searches of the configured models, and
	// slotOf[m][i] is the slot of layer i of model m (see newSlots).
	slots  []slot
	slotOf [][]int
	// records is the record map: layer decisions a fleet coordinator
	// installed (InstallRecords is its one writer) under their content
	// address, bounded at 8x the design-memo cap (a long-running coordinator
	// streams arbitrary layer shapes through one process; an unbounded map is
	// a slow leak). A design's own decisions live in its Result.
	records fifoMap[evalcache.Key, *evalcache.Entry]
	// walks is the walk memo of the pruned mapping search, bounded at
	// walkCap: per layer shape, PEs and buffer capacities, the part of the
	// mapping space earlier searches walked, which later searches replay.
	walks fifoMap[walkKey, *perf.Walk]

	// store is the second-level persistent cache (nil when disabled).
	store *evalcache.Store

	faultSeq int // next unique-evaluation ordinal (FaultPolicy currency)

	// Instrumentation lives in a private metrics registry (see Metrics);
	// the fields below are the counters resolved once at construction so
	// hot paths never touch the registry map. Counters are atomic — e.mu
	// is not required to bump them — and Stats is a point-in-time view
	// over the same registry, so existing reporting keeps working.
	reg         *obs.Registry
	cEvals      *obs.Counter
	cHits       *obs.Counter
	cDedups     *obs.Counter
	cRecomputes *obs.Counter
	cEvictions  *obs.Counter
	cPanics     *obs.Counter
	cTimeouts   *obs.Counter
	cTransient  *obs.Counter
	cRetries    *obs.Counter
	cLHits      *obs.Counter
	cLMisses    *obs.Counter
	cLEvictions *obs.Counter
	cWalkHits   *obs.Counter
	cWalkMisses *obs.Counter
	cPHits      *obs.Counter
	cPMisses    *obs.Counter
	cPWrites    *obs.Counter
	cCostCalls  *obs.Counter
	cFullEvals  *obs.Counter
	cLBPruned   *obs.Counter
	cTrials     *obs.Counter
	cWallNs     *obs.Counter
	hDesign     *obs.Histogram
	hLayer      *obs.Histogram
}

// flight is one in-progress evaluation other goroutines can wait on.
type flight struct {
	done chan struct{}
	r    *Result
}

// Stats is a snapshot of the evaluator's instrumentation counters.
type Stats struct {
	// Evaluations is the number of unique design points evaluated.
	Evaluations int
	// CacheHits counts Evaluate calls answered from the memo cache.
	CacheHits int
	// InflightDedups counts Evaluate calls that joined an in-flight
	// evaluation of the same point instead of racing to duplicate it.
	InflightDedups int
	// Evictions counts design results dropped from the bounded memo.
	Evictions int
	// Recomputes counts evaluations of designs seen before but evicted;
	// they redo real work without charging the unique-design budget.
	Recomputes int
	// LayerHits counts layer lookups answered from the record map, that is
	// from records a fleet coordinator installed. Zero on a local campaign.
	LayerHits int
	// LayerMisses counts layer searches actually run.
	LayerMisses int
	// LayerEvictions counts installed records dropped from the bounded
	// record map.
	LayerEvictions int
	// PersistHits counts layer searches answered from the on-disk
	// persistent cache (a second-level hit: no installed record, found on
	// disk, cost model never ran). It includes twin designs (distinct
	// points that decode to one design) answering from their own run's
	// writes.
	PersistHits int
	// PersistMisses counts layer searches that probed the persistent cache
	// and found nothing (always at most LayerMisses; zero when no cache
	// directory is attached).
	PersistMisses int
	// PersistWrites counts fresh search results appended to the
	// persistent cache for future runs.
	PersistWrites int
	// PersistCorrupt counts persistent-cache records dropped because their
	// CRC or structure failed verification — each one degraded to a miss,
	// never to a wrong result. Store-level: with a shared store (see
	// Config.PersistCache) the count aggregates across every evaluator.
	PersistCorrupt int
	// PersistStale counts persistent-cache records retired because they
	// were written under a different cost-model version (perf.ModelVersion).
	// Store-level, like PersistCorrupt.
	PersistStale int
	// CostCalls is the total number of mapping candidates priced by the
	// perf model during mapping searches (mapping.Result.CostCalls); with
	// lower-bound pruning it trails MapTrials. Every one is priced on the
	// Tier-1 fast path (perf.EvalContext.EvaluateFill), which prices a
	// temporal fill under all its orderings in one call and reports cycles
	// only.
	CostCalls int64
	// FullEvals is the number of Tier-2 full-breakdown evaluations
	// (perf.EvalContext.Evaluate): one per layer lookup that found a mapping
	// — a fresh search's winner, the fixed-dataflow analytical mapping, or a
	// record answered from an installed record or the persistent store
	// (records carry no breakdown). The Tier-1/Tier-2 split
	// FullEvals/CostCalls is the fraction of perf-model work that pays for
	// the complete per-operand factor tree.
	FullEvals int64
	// LBPruned counts mapping candidates whose cost call was skipped
	// because a certified lower bound proved they could not win.
	LBPruned int64
	// MapTrials is the total number of mapping-search candidates
	// examined across all unique design evaluations.
	MapTrials int64
	// EvalWall is the cumulative wall time spent inside unique design
	// evaluations. Concurrent evaluations each contribute their own
	// elapsed time, so this can exceed the run's elapsed wall clock —
	// the ratio EvalWall/Elapsed is the effective evaluation parallelism.
	EvalWall time.Duration
	// PanicsRecovered counts evaluation panics contained by the evaluator
	// and converted into infeasible-with-error results. A non-zero count
	// means some designs crashed the model; the campaign itself survived.
	PanicsRecovered int
	// EvalTimeouts counts evaluations abandoned by the Config.EvalTimeout
	// watchdog and memoized as infeasible-with-error.
	EvalTimeouts int
	// TransientFaults counts evaluation attempts that failed with a
	// ClassTransient error, whether or not a retry attempt remained.
	TransientFaults int
	// Retries counts attempts re-run by the retry layer after a transient
	// failure (always at most TransientFaults).
	Retries int
}

// New returns an Evaluator over the given configuration.
func New(cfg Config) *Evaluator {
	if cfg.MapTrials <= 0 {
		cfg.MapTrials = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
		if cfg.Workers > 4 {
			cfg.Workers = 4
		}
	}
	reg := obs.NewRegistry()
	e := &Evaluator{
		cfg:     cfg,
		flights: make(map[string]*flight),
		seen:    make(map[string]bool),
		store:   cfg.PersistCache,

		reg:         reg,
		cEvals:      reg.Counter("eval_design_evaluations_total"),
		cHits:       reg.Counter("eval_design_cache_hits_total"),
		cDedups:     reg.Counter("eval_inflight_dedups_total"),
		cRecomputes: reg.Counter("eval_design_recomputes_total"),
		cEvictions:  reg.Counter("eval_design_evictions_total"),
		cPanics:     reg.Counter("eval_panics_recovered_total"),
		cTimeouts:   reg.Counter("eval_timeouts_total"),
		cTransient:  reg.Counter("eval_transient_faults_total"),
		cRetries:    reg.Counter("eval_retries_total"),
		cLHits:      reg.Counter("eval_layer_cache_hits_total"),
		cLMisses:    reg.Counter("eval_layer_searches_total"),
		cLEvictions: reg.Counter("eval_layer_evictions_total"),
		cWalkHits:   reg.Counter("eval_walk_memo_hits_total"),
		cWalkMisses: reg.Counter("eval_walk_memo_misses_total"),
		cPHits:      reg.Counter("eval_persist_hits_total"),
		cPMisses:    reg.Counter("eval_persist_misses_total"),
		cPWrites:    reg.Counter("eval_persist_writes_total"),
		cCostCalls:  reg.Counter("eval_cost_calls_total"),
		cFullEvals:  reg.Counter("eval_full_evaluations_total"),
		cLBPruned:   reg.Counter("eval_lb_pruned_total"),
		cTrials:     reg.Counter("eval_map_trials_total"),
		cWallNs:     reg.Counter("eval_wall_ns_total"),
		hDesign:     reg.Histogram("eval_design_seconds", obs.DurationBuckets()),
		hLayer:      reg.Histogram("eval_layer_search_seconds", obs.DurationBuckets()),
	}
	e.cache = newFIFOMap[string, *Result](DefaultCacheCap, e.cEvictions)
	e.records = newFIFOMap[evalcache.Key, *evalcache.Entry](8*DefaultCacheCap, e.cLEvictions)
	e.slots, e.slotOf = newSlots(cfg.Models, cfg.Mode)
	e.walks = newFIFOMap[walkKey, *perf.Walk](walkCap, nil)
	return e
}

// Metrics returns the evaluator's private metrics registry: the counters
// behind Stats plus the latency histograms (eval_design_seconds,
// eval_layer_search_seconds, search_batch_seconds). Campaign drivers merge
// it into a campaign-level registry after each run; tests read it directly.
func (e *Evaluator) Metrics() *obs.Registry { return e.reg }

// Config returns the evaluator configuration.
func (e *Evaluator) Config() Config { return e.cfg }

// Evaluations returns the number of unique design points evaluated so far.
func (e *Evaluator) Evaluations() int {
	return int(e.cEvals.Value())
}

// Prime marks design keys as already evaluated and charges them to the
// unique-design budget without computing anything — the checkpoint-resume
// hook. A primed key neither consumes a fault ordinal nor counts as a new
// unique evaluation when later recomputed (it is a recompute, exactly as an
// evicted design would be), so a resumed run's budget accounting matches the
// uninterrupted run's. Keys already seen are ignored; the number of newly
// primed keys is returned.
func (e *Evaluator) Prime(keys []string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, k := range keys {
		if !e.seen[k] {
			e.seen[k] = true
			e.cEvals.Inc()
			n++
		}
	}
	return n
}

// Stats snapshots the instrumentation counters — a typed view over the
// metrics registry (see Metrics), kept so existing reporting and tests
// need not know about the registry.
func (e *Evaluator) Stats() Stats {
	var persistCorrupt, persistStale int
	if e.store != nil {
		// Store-level counters live in whatever registry the store was
		// opened with, which belongs to the code that opened it.
		persistCorrupt = int(e.store.Metrics().Counter("evalcache_corrupt_records_total").Value())
		persistStale = int(e.store.Metrics().Counter("evalcache_stale_records_total").Value())
	}
	return Stats{
		Evaluations:     int(e.cEvals.Value()),
		CacheHits:       int(e.cHits.Value()),
		InflightDedups:  int(e.cDedups.Value()),
		Evictions:       int(e.cEvictions.Value()),
		Recomputes:      int(e.cRecomputes.Value()),
		LayerHits:       int(e.cLHits.Value()),
		LayerMisses:     int(e.cLMisses.Value()),
		LayerEvictions:  int(e.cLEvictions.Value()),
		PersistHits:     int(e.cPHits.Value()),
		PersistMisses:   int(e.cPMisses.Value()),
		PersistWrites:   int(e.cPWrites.Value()),
		PersistCorrupt:  persistCorrupt,
		PersistStale:    persistStale,
		CostCalls:       e.cCostCalls.Value(),
		FullEvals:       e.cFullEvals.Value(),
		LBPruned:        e.cLBPruned.Value(),
		MapTrials:       e.cTrials.Value(),
		EvalWall:        time.Duration(e.cWallNs.Value()),
		PanicsRecovered: int(e.cPanics.Value()),
		EvalTimeouts:    int(e.cTimeouts.Value()),
		TransientFaults: int(e.cTransient.Value()),
		Retries:         int(e.cRetries.Value()),
	}
}

// Evaluate returns the (memoized) evaluation of a design point. Concurrent
// calls are safe; concurrent misses on the same point compute it once and
// share the result, so parallel batches never discard duplicate work.
func (e *Evaluator) Evaluate(pt arch.Point) *Result {
	return e.EvaluateCtx(context.Background(), pt)
}

// EvaluateCtx is Evaluate with cancellation: when ctx is done the call
// returns a Cancelled result immediately — an abandoned evaluation is never
// cached, never counted against the unique-design budget, and therefore
// invisible to budget accounting, which is what makes a killed-and-resumed
// run bit-identical to an uninterrupted one. Panics inside the evaluation
// are contained (Stats.PanicsRecovered) and the Config.EvalTimeout watchdog
// converts runaway attempts into errored results; both are classified
// ClassTransient and re-attempted under Config.Retry, so only failures that
// are permanent — by class or by exhausting the attempt budget — are ever
// charged, memoized, or journaled. A transient fault healed by a retry is
// completely invisible to the campaign's results.
func (e *Evaluator) EvaluateCtx(ctx context.Context, pt arch.Point) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return cancelledResult(pt, err)
	}
	// A context carrying trace context (a serve worker handling a traced
	// fleet shard) gets one span per call — memo hits included, so the span
	// duration is the honest per-point cost. Local runs never plant a span
	// here, so this is a single nil-returning ctx.Value on their hot path.
	if tr, parent, ok := obs.SpanFromContext(ctx); ok {
		sp := tr.StartChild(parent, obs.SpanWorkerEval, pt.Key())
		defer sp.End()
	}
	key := pt.Key()
	e.mu.Lock()
	if r, ok := e.cache.get(key); ok {
		e.cHits.Inc()
		e.mu.Unlock()
		return r
	}
	if f, ok := e.flights[key]; ok {
		e.cDedups.Inc()
		e.mu.Unlock()
		select {
		case <-f.done:
			return f.r
		case <-ctx.Done():
			return cancelledResult(pt, ctx.Err())
		}
	}
	f := &flight{done: make(chan struct{})}
	e.flights[key] = f
	// Unique-evaluation ordinals — the FaultPolicy and OnEvaluation
	// currency — are assigned when a never-seen key starts evaluating, so
	// checkpoint-primed keys and recomputes never consume one.
	ord := -1
	if !e.seen[key] {
		ord = e.faultSeq
		e.faultSeq++
	}
	e.mu.Unlock()

	if fp := e.cfg.Faults; fp != nil && ord >= 0 && fp.OnEvaluation != nil {
		fp.OnEvaluation(ord)
	}

	start := time.Now()
	r := e.retryingEvaluate(ctx, pt, ord)
	elapsed := time.Since(start)

	e.mu.Lock()
	if r.Cancelled {
		// Abandoned: no charge, no memo. Waiters on this flight share
		// the cancellation (batch workers share the campaign context).
		delete(e.flights, key)
		e.mu.Unlock()
		f.r = r
		close(f.done)
		return r
	}
	e.cache.put(key, r)
	if e.seen[key] {
		e.cRecomputes.Inc()
	} else {
		e.seen[key] = true
		e.cEvals.Inc()
	}
	delete(e.flights, key)
	e.mu.Unlock()
	e.cTrials.Add(int64(r.MapEvaluations))
	e.cWallNs.Add(int64(elapsed))
	e.hDesign.ObserveDuration(elapsed)

	// Publish before waking waiters: the channel close orders f.r's write
	// before every waiter's read.
	f.r = r
	close(f.done)
	return r
}

func (e *Evaluator) evaluate(ctx context.Context, pt arch.Point) *Result {
	d, err := e.cfg.Space.Decode(pt)
	if err != nil {
		// A malformed point (wrong arity, out-of-range index) is an
		// errored design, not a crash: optimizers construct points
		// through Space methods, so this only fires on corrupted external
		// input — which must degrade gracefully, not kill the campaign.
		return erroredResult(pt, "malformed design point: "+err.Error())
	}
	// Cancellation is checked once, before any search; a cancelled
	// evaluation is abandoned wholesale and never cached.
	if ctx.Err() != nil {
		return cancelledResult(pt, ctx.Err())
	}
	r := &Result{Point: pt.Clone(), Design: d, Models: make([]ModelEval, len(e.cfg.Models))}
	r.Energy = e.emodel.Estimate(d)
	r.AreaMM2 = r.Energy.AreaMM2
	r.PowerW = r.Energy.MaxPowerW

	for mi, mdl := range e.cfg.Models {
		r.Models[mi] = ModelEval{Model: mdl, Layers: make([]LayerEval, len(mdl.Layers))}
	}
	e.searchSlots(d, r.Models)
	for mi := range r.Models {
		me := &r.Models[mi]
		e.finishModel(d, r.Energy, r.Models, mi)
		for _, le := range me.Layers {
			r.MapEvaluations += le.MapTrials
		}
		r.LatencyMs += me.LatencyMs
		r.EnergyMJ += me.EnergyMJ
	}
	switch e.cfg.Objective {
	case MinEnergy:
		r.Objective = r.EnergyMJ
		if math.IsInf(r.LatencyMs, 1) {
			r.Objective = math.Inf(1)
		}
	default:
		r.Objective = r.LatencyMs
	}

	e.checkConstraints(r)
	return r
}

// searchSlots runs every slot's layer search on design d and puts each
// outcome in the LayerEval of the slot's first layer in models.
//
// min(Workers, slots) goroutines pull slot indices, so a stack grown by one
// search serves the next searches of the design, and a 100-layer model under
// Workers=1 runs on one goroutine.
//
// A panic on a worker would kill the whole process (panics never cross
// goroutines), so each slot's panic value is captured into its own entry, the
// worker moves on to the next slot, and the first panic — by slot order, so
// the choice is deterministic — is re-raised on the calling goroutine after
// the barrier, where protectedEvaluate's recover converts it into an errored
// design.
func (e *Evaluator) searchSlots(d arch.Design, models []ModelEval) {
	// The design sub-key is identical for every slot, so it is built once
	// per design here (it was ~10% of a fully-warm campaign when rebuilt per
	// layer).
	sub := perf.MappingSubKey(d)
	panics := make([]any, len(e.slots))
	search := func(i int) {
		defer func() {
			if rec := recover(); rec != nil {
				panics[i] = rec
			}
		}()
		s := &e.slots[i]
		dec, b := e.layerResult(d, sub, s)
		le := &models[s.model].Layers[s.index]
		le.Mapping, le.Perf, le.MapTrials, le.Found = dec.Mapping, b, dec.Trials, dec.Found
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(e.cfg.Workers, len(e.slots)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(e.slots); i = int(next.Add(1)) - 1 {
				search(i)
			}
		}()
	}
	wg.Wait()
	for _, rec := range panics {
		if rec != nil {
			panic(rec)
		}
	}
}

// finishModel completes models[mi] after searchSlots: every layer that is not
// its slot's first copies the first's outcome, each layer scales its cycles
// and energy by its own multiplicity, and the model totals and throughput
// constraint follow.
func (e *Evaluator) finishModel(d arch.Design, est energy.Estimate, models []ModelEval, mi int) {
	me := &models[mi]
	for li := range me.Layers {
		le := &me.Layers[li]
		if s := &e.slots[e.slotOf[mi][li]]; s.model != mi || s.index != li {
			first := &models[s.model].Layers[s.index]
			le.Mapping, le.Perf, le.MapTrials, le.Found = first.Mapping, first.Perf, first.MapTrials, first.Found
		}
		le.Layer = me.Model.Layers[li]
		le.TotalCycles = le.Perf.Cycles * float64(max(le.Layer.Mult, 1))
		le.EnergyMJ = layerEnergyMJ(est, *le)
	}
	for _, le := range me.Layers {
		if !le.Perf.Valid {
			me.Incompatible = true
			me.IncompatSeverity += float64(max(le.Perf.IncompatCount, 1))
			continue
		}
		me.Cycles += le.TotalCycles
		me.EnergyMJ += le.EnergyMJ
	}
	if me.Incompatible {
		me.Cycles = math.Inf(1)
	}
	if n := len(me.Layers); n > 0 {
		me.IncompatSeverity /= float64(n)
	}
	if d.FreqMHz > 0 {
		me.LatencyMs = me.Cycles / (float64(d.FreqMHz) * 1e3)
	} else {
		// A clockless design can never meet a throughput ceiling;
		// report infinite latency rather than letting 0/0 turn the
		// bottleneck trees into NaN.
		me.LatencyMs = math.Inf(1)
	}
	me.MeetsThroughput = me.LatencyMs <= me.Model.MaxLatencyMs
}

// layerEnergyMJ integrates the layer's access counts against the design's
// per-event energies: MACs plus two reads and a write at the RF per MAC,
// scratchpad and NoC energy per NoC byte, and DRAM energy per off-chip byte.
func layerEnergyMJ(est energy.Estimate, le LayerEval) float64 {
	b := le.Perf
	var dram, noc float64
	for _, op := range arch.Operands {
		dram += b.DataOffchip[op]
		noc += b.DataNoC[op]
	}
	pj := b.MACs*est.MACPJ + 3*b.MACs*est.RFAccessPJ +
		noc/workload.BytesPerElem*est.L2AccessPJ + noc*est.NoCPerByte + dram*est.DRAMPerByte
	mult := le.Layer.Mult
	if mult < 1 {
		mult = 1
	}
	return pj * float64(mult) * 1e-9 // pJ -> mJ
}

// maxConstraintUtil is the finite ceiling constraintUtil clamps to: large
// enough to dominate any real utilization, small enough that budget
// comparisons between two broken designs still order by everything else.
const maxConstraintUtil = 1e6

// constraintUtil returns value/limit with the division guarded: a
// non-positive limit with non-zero usage, or a non-finite ratio, reads as a
// hard violation with a large finite utilization instead of a NaN/Inf that
// would poison every downstream budget comparison and bottleneck tree.
func constraintUtil(value, limit float64) float64 {
	if limit > 0 {
		u := value / limit
		if !math.IsNaN(u) && !math.IsInf(u, 0) {
			return u
		}
		return maxConstraintUtil
	}
	if value <= 0 {
		return 0 // vacuously satisfied: nothing used, nothing allowed
	}
	return maxConstraintUtil
}

func (e *Evaluator) checkConstraints(r *Result) {
	c := e.cfg.Constraints
	utils := []float64{
		constraintUtil(r.AreaMM2, c.MaxAreaMM2),
		constraintUtil(r.PowerW, c.MaxPowerW),
	}
	r.MeetsAreaPower = utils[0] <= 1 && utils[1] <= 1
	if utils[0] > 1 {
		r.Violations = append(r.Violations, fmt.Sprintf("area %.1fmm2 > %.1fmm2", r.AreaMM2, c.MaxAreaMM2))
	}
	if utils[1] > 1 {
		r.Violations = append(r.Violations, fmt.Sprintf("power %.2fW > %.2fW", r.PowerW, c.MaxPowerW))
	}
	throughputOK := true
	for _, me := range r.Models {
		u := constraintUtil(me.LatencyMs, me.Model.MaxLatencyMs)
		if me.Incompatible {
			// Incompatible designs burn the whole budget. The
			// penalty (a) dominates any realistic latency
			// utilization, so becoming compatible always reads as
			// budget progress, and (b) is graded by how many
			// incompatibilities remain, so partial fixes register
			// too (§4.6 progress signal).
			u = 1000 * (1 + me.IncompatSeverity)
		}
		utils = append(utils, u)
		if me.Incompatible {
			throughputOK = false
			r.Violations = append(r.Violations, fmt.Sprintf("%s: mapping incompatible with design", me.Model.Name))
		} else if !me.MeetsThroughput {
			throughputOK = false
			r.Violations = append(r.Violations, fmt.Sprintf("%s: latency %.2fms > %.2fms", me.Model.Name, me.LatencyMs, me.Model.MaxLatencyMs))
		}
	}
	sum := 0.0
	for _, u := range utils {
		sum += u
	}
	r.BudgetUtil = sum / float64(len(utils))
	r.Feasible = r.MeetsAreaPower && throughputOK
}
