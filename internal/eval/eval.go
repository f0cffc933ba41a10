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
	"math/rand"
	"os"
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

// WarmStartMode selects how the layer-grain cache accelerates a near-miss
// (same layer shape, different mapping-relevant sub-key).
type WarmStartMode int

const (
	// WarmStrict (the default) probes the layer's previously-best mapping
	// through the new design's cost model and lets the enumeration use the
	// probe plus a certified cost lower bound to skip provably-losing cost
	// calls. The contract is strict: the returned best mapping, cycles,
	// and Evaluated counts are bit-identical to a cold run — only the
	// number of cost-model invocations changes (see mapping.GenConfig).
	WarmStrict WarmStartMode = iota
	// WarmOff disables both the incumbent probe and lower-bound pruning,
	// reproducing the fully-cold search (the reference for equivalence
	// tests and cold benchmarks).
	WarmOff
)

// String names the warm-start mode, rendering out-of-range values as
// "unknown(n)".
func (w WarmStartMode) String() string {
	names := [...]string{"warm-strict", "warm-off"}
	if w < 0 || int(w) >= len(names) {
		return fmt.Sprintf("unknown(%d)", int(w))
	}
	return names[w]
}

// DefaultCacheCap is the design-level memo entry bound used when
// Config.CacheCap is zero. It is far above any campaign budget in this
// repository, so eviction only engages on very long-running explorations.
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
	// DisableLayerCache turns off the layer-grain mapping cache and the
	// warm-start index; every design evaluation then re-runs every layer's
	// mapping search (the pre-cache behavior, kept for A/B comparisons).
	DisableLayerCache bool
	// WarmStart selects the near-miss acceleration mode (default
	// WarmStrict; results are bit-identical in every mode).
	WarmStart WarmStartMode
	// CacheCap bounds the design-level memo entry count: 0 selects
	// DefaultCacheCap, a negative value disables eviction entirely. The
	// layer-grain cache and the per-shape warm-start index are each
	// bounded at 8x this cap. Unique-design budget accounting is exact
	// under eviction: re-evaluating an evicted design is counted as a
	// recompute, never as a new unique evaluation.
	CacheCap int
	// CacheDir, when non-empty, opens the cross-run persistent evaluation
	// cache (internal/evalcache) in that directory and slots it under the
	// in-memory layer cache: layer searches answered neither by memory nor
	// by an in-flight twin are looked up on disk before the cost model
	// runs, and fresh search results are appended for future runs and
	// other processes. Results are bit-identical with or without it — a
	// persist hit replays the exact entry a cold search would compute. An
	// unopenable directory degrades to no persistent cache with a warning.
	CacheDir string
	// PersistCache injects an already-open store instead of (or in
	// addition to) CacheDir — the serve daemon shares one store across
	// every job's evaluator this way. When set, CacheDir is ignored.
	PersistCache *evalcache.Store
	// EvalTimeout, when positive, arms a per-evaluation watchdog: a design
	// whose evaluation (mapping search included) exceeds the deadline is
	// charged and memoized as infeasible-with-error instead of hanging the
	// campaign. The abandoned computation is left to finish in the
	// background; its layer-cache writes remain valid (they are
	// deterministic), only its design result is discarded.
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
	// cache is the design memo, bounded at the resolved Config.CacheCap.
	cache   fifoMap[string, *Result]
	flights map[string]*flight
	// seen records every design key ever evaluated and is never evicted,
	// so unique-design budget accounting stays exact under eviction.
	seen map[string]bool

	// Layer-grain mapping cache: completed searches keyed by (layer shape,
	// mapping-relevant design sub-key), in-flight searches deduplicated
	// singleflight-style, and a per-shape warm-start index of the best
	// mapping last found for the shape under any sub-key. Both maps are
	// bounded at 8x the design-memo cap (a long-running daemon streams
	// arbitrary layer shapes through one process; an unbounded index is a
	// slow leak).
	lcache   fifoMap[layerCacheKey, layerEntry]
	lflights map[layerCacheKey]*layerFlight
	warm     fifoMap[string, mapping.Mapping]

	// store is the second-level persistent cache (nil when disabled);
	// ownStore reports it was opened by this evaluator from Config.CacheDir
	// (its counters then live in this evaluator's registry).
	store    *evalcache.Store
	ownStore bool

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
	cLDedups    *obs.Counter
	cLEvictions *obs.Counter
	cPHits      *obs.Counter
	cPMisses    *obs.Counter
	cPWrites    *obs.Counter
	cWarmProbes *obs.Counter
	cWarmFalls  *obs.Counter
	cWarmEvict  *obs.Counter
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

// layerCacheKey identifies one layer-grain mapping-search result: the
// canonical layer shape, the design sub-key of exactly the parameters the
// perf model reads (perf.MappingSubKey), and — in RandomMappings mode only —
// the layer's seed salt, because the random search's rng is derived from the
// layer index.
type layerCacheKey struct {
	shape string
	sub   string
	salt  int64
}

// layerEntry is the shape-invariant outcome of a layer's search: the
// decision, as stored and shipped, plus the Tier-2 breakdown derive
// computes from it. The caller re-attaches the concrete Layer (whose Name
// and Mult are not part of the shape key) and re-derives
// multiplicity-scaled totals.
type layerEntry struct {
	evalcache.Entry
	perf perf.Breakdown
	// derived is false only for an installed record not yet looked up; its
	// breakdown is derived on the first layerResult hit, where the design
	// and the layer are at hand.
	derived bool
}

// layerFlight is one in-progress layer search other goroutines can wait on.
// When the search panics, panicked carries the panic value: waiters re-raise
// it on their own goroutine so every design joined to the doomed search
// records the failure itself (instead of deadlocking on a flight that will
// never close).
type layerFlight struct {
	done     chan struct{}
	ent      layerEntry
	panicked any
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
	// LayerHits counts layer searches answered from the layer-grain cache.
	LayerHits int
	// LayerMisses counts layer searches actually run.
	LayerMisses int
	// LayerDedups counts layer searches that joined an identical
	// in-flight search instead of duplicating it.
	LayerDedups int
	// LayerEvictions counts entries dropped from the bounded layer cache.
	LayerEvictions int
	// PersistHits counts layer searches answered from the on-disk
	// persistent cache (a second-level hit: missed in memory, found on
	// disk, cost model never ran).
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
	// WarmProbes counts layer searches warm-started from a previous best
	// mapping of the same shape under a different design sub-key.
	WarmProbes int
	// WarmFallbacks counts warm-started searches that had to re-evaluate
	// probe-pruned candidates to discharge the strict bit-identical
	// contract (the probe did not strictly lose to the enumeration best).
	WarmFallbacks int
	// WarmEvictions counts entries dropped from the bounded warm-start
	// index.
	WarmEvictions int
	// CostCalls is the total number of mapping candidates priced by the
	// perf model during mapping searches (mapping.Result.CostCalls); with
	// lower-bound pruning it trails MapTrials. Every one is priced on the
	// Tier-1 fast path (perf.EvalContext.EvaluateFill), which prices a
	// temporal fill under all its orderings in one call and reports cycles
	// only.
	CostCalls int64
	// FullEvals is the number of Tier-2 full-breakdown evaluations
	// (perf.EvalContext.Evaluate): one per found mapping a layer entry is
	// derived from — a fresh search's winner, the fixed-dataflow
	// analytical mapping, or a record answered from the persistent store
	// or installed from a fleet worker (records carry no breakdown). The
	// Tier-1/Tier-2 split FullEvals/CostCalls is the fraction of perf-model
	// work that pays for the complete per-operand factor tree.
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
	capn := cfg.CacheCap
	switch {
	case capn == 0:
		capn = DefaultCacheCap
	case capn < 0:
		capn = 0 // unbounded
	}
	reg := obs.NewRegistry()
	store := cfg.PersistCache
	ownStore := false
	if store == nil && cfg.CacheDir != "" && !cfg.DisableLayerCache {
		s, err := evalcache.Open(cfg.CacheDir, evalcache.Options{Registry: reg})
		if err != nil {
			// A broken cache directory costs performance, never a run:
			// degrade to the in-memory caches alone.
			fmt.Fprintf(os.Stderr, "eval: persistent cache %s unavailable, continuing without: %v\n", cfg.CacheDir, err)
		} else {
			store, ownStore = s, true
		}
	}
	e := &Evaluator{
		cfg:      cfg,
		flights:  make(map[string]*flight),
		seen:     make(map[string]bool),
		lflights: make(map[layerCacheKey]*layerFlight),
		store:    store,
		ownStore: ownStore,

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
		cLDedups:    reg.Counter("eval_layer_dedups_total"),
		cLEvictions: reg.Counter("eval_layer_evictions_total"),
		cPHits:      reg.Counter("eval_persist_hits_total"),
		cPMisses:    reg.Counter("eval_persist_misses_total"),
		cPWrites:    reg.Counter("eval_persist_writes_total"),
		cWarmProbes: reg.Counter("eval_warm_probes_total"),
		cWarmFalls:  reg.Counter("eval_warm_fallbacks_total"),
		cWarmEvict:  reg.Counter("eval_warm_evictions_total"),
		cCostCalls:  reg.Counter("eval_cost_calls_total"),
		cFullEvals:  reg.Counter("eval_full_evaluations_total"),
		cLBPruned:   reg.Counter("eval_lb_pruned_total"),
		cTrials:     reg.Counter("eval_map_trials_total"),
		cWallNs:     reg.Counter("eval_wall_ns_total"),
		hDesign:     reg.Histogram("eval_design_seconds", obs.DurationBuckets()),
		hLayer:      reg.Histogram("eval_layer_search_seconds", obs.DurationBuckets()),
	}
	e.cache = newFIFOMap[string, *Result](capn, e.cEvictions)
	e.lcache = newFIFOMap[layerCacheKey, layerEntry](8*capn, e.cLEvictions)
	e.warm = newFIFOMap[string, mapping.Mapping](8*capn, e.cWarmEvict)
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
		// opened with (this evaluator's when it owns the store, the
		// sharing owner's otherwise).
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
		LayerDedups:     int(e.cLDedups.Value()),
		LayerEvictions:  int(e.cLEvictions.Value()),
		PersistHits:     int(e.cPHits.Value()),
		PersistMisses:   int(e.cPMisses.Value()),
		PersistWrites:   int(e.cPWrites.Value()),
		PersistCorrupt:  persistCorrupt,
		PersistStale:    persistStale,
		WarmProbes:      int(e.cWarmProbes.Value()),
		WarmFallbacks:   int(e.cWarmFalls.Value()),
		WarmEvictions:   int(e.cWarmEvict.Value()),
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

// ResetCount zeroes the instrumentation counters and histograms (the caches
// are retained, and the fault-ordinal sequence keeps advancing so injected
// faults stay pinned to unique evaluations across a reset).
func (e *Evaluator) ResetCount() {
	e.reg.Reset()
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

// erroredResult builds the infeasible Result recorded for a design whose
// evaluation failed outright: infinite objective, a large finite constraints
// budget, and the failure reason in both Err and Violations. The failure is
// classified ClassPermanent; transient paths use transientResult.
func erroredResult(pt arch.Point, reason string) *Result {
	return &Result{
		Point:      pt.Clone(),
		LatencyMs:  math.Inf(1),
		EnergyMJ:   math.Inf(1),
		Objective:  math.Inf(1),
		BudgetUtil: maxConstraintUtil,
		Violations: []string{reason},
		Err:        reason,
		ErrClass:   ClassPermanent,
	}
}

// transientResult is erroredResult classified ClassTransient: the retry
// layer re-attempts it instead of letting it reach the memo or journal.
func transientResult(pt arch.Point, reason string) *Result {
	r := erroredResult(pt, reason)
	r.ErrClass = ClassTransient
	return r
}

// cancelledResult builds the uncharged, uncached Result returned when an
// evaluation is abandoned by context cancellation. Cancellation is
// classified transient — the work is simply redone after resume — but is
// special-cased by the Cancelled flag everywhere, retries included.
func cancelledResult(pt arch.Point, err error) *Result {
	r := transientResult(pt, "evaluation cancelled: "+err.Error())
	r.Cancelled = true
	return r
}

// retryingEvaluate drives the transient-fault retry loop around
// protectedEvaluate: a ClassTransient failure is re-attempted under the
// configured RetryPolicy with a deterministic jitter-free backoff, and only
// the final outcome — a success, a permanent failure, or a transient
// failure that exhausted the attempt budget and is thereby reclassified
// permanent — escapes to be charged, memoized, and journaled. Cancellation
// aborts the loop (and any backoff sleep) immediately.
func (e *Evaluator) retryingEvaluate(ctx context.Context, pt arch.Point, ord int) *Result {
	maxAttempts := e.cfg.Retry.attempts()
	for attempt := 0; ; attempt++ {
		r := e.protectedEvaluate(ctx, pt, ord, attempt)
		r.Attempts = attempt + 1
		if r.Cancelled || r.Err == "" {
			return r
		}
		if r.ErrClass != ClassTransient {
			return r
		}
		e.cTransient.Inc()
		if attempt+1 >= maxAttempts {
			// Out of attempts: the transient failure is now permanent —
			// the only shape in which a transient error may ever be
			// charged, memoized, or journaled.
			r.ErrClass = ClassPermanent
			if attempt > 0 {
				r.Err = fmt.Sprintf("%s (permanent after %d attempts)", r.Err, r.Attempts)
			}
			return r
		}
		e.cRetries.Inc()
		if d := e.cfg.Retry.DelayBefore(attempt + 1); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return cancelledResult(pt, ctx.Err())
			}
		}
	}
}

// protectedEvaluate runs one design-evaluation attempt inside the
// resilience envelope: injected faults applied, panics recovered into
// transient errored results, and — when Config.EvalTimeout is set — a
// watchdog that abandons runaway attempts. One bad design must never take
// down a campaign; whether a failed attempt is final is the retry layer's
// decision (see retryingEvaluate).
func (e *Evaluator) protectedEvaluate(ctx context.Context, pt arch.Point, ord, attempt int) (r *Result) {
	defer func() {
		if rec := recover(); rec != nil {
			e.cPanics.Inc()
			// A crash describes the attempt, not the design: classified
			// transient so the retry layer may re-attempt it. Without
			// retries it goes permanent immediately, preserving the
			// pre-retry charged-and-memoized behavior.
			r = transientResult(pt, fmt.Sprintf("panic during evaluation: %v", rec))
		}
	}()
	if e.cfg.EvalTimeout <= 0 {
		return e.runEvaluate(ctx, pt, ord, attempt)
	}
	// Watchdog: run the evaluation on its own goroutine and race it
	// against the deadline and the context. A panic on that goroutine is
	// ferried back and re-raised here so the recover above owns it.
	resCh := make(chan *Result, 1)
	panicCh := make(chan any, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				panicCh <- rec
			}
		}()
		resCh <- e.runEvaluate(ctx, pt, ord, attempt)
	}()
	timer := time.NewTimer(e.cfg.EvalTimeout)
	defer timer.Stop()
	select {
	case r := <-resCh:
		return r
	case rec := <-panicCh:
		panic(rec)
	case <-timer.C:
		e.cTimeouts.Inc()
		return transientResult(pt, fmt.Sprintf("evaluation exceeded watchdog timeout %v", e.cfg.EvalTimeout))
	case <-ctx.Done():
		return cancelledResult(pt, ctx.Err())
	}
}

// runEvaluate applies any injected faults for this (unique-evaluation
// ordinal, attempt) site, then evaluates the design.
func (e *Evaluator) runEvaluate(ctx context.Context, pt arch.Point, ord, attempt int) *Result {
	if fp := e.cfg.Faults; fp != nil && ord >= 0 {
		if d := fp.delayFor(ord, attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return cancelledResult(pt, ctx.Err())
			}
		}
		if fp.panicAt(ord, attempt) {
			panic(fmt.Sprintf("injected fault: panic at unique evaluation %d", ord))
		}
		if fp.errorAt(ord, attempt) {
			return erroredResult(pt, fmt.Sprintf("injected fault: error at unique evaluation %d", ord))
		}
		if fp.transientAt(ord, attempt) {
			return transientResult(pt, fmt.Sprintf("injected fault: transient error at unique evaluation %d attempt %d", ord, attempt))
		}
	}
	return e.evaluate(ctx, pt)
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
	r := &Result{Point: pt.Clone(), Design: d}
	r.Energy = e.emodel.Estimate(d)
	r.AreaMM2 = r.Energy.AreaMM2
	r.PowerW = r.Energy.MaxPowerW

	// The design sub-key is identical for every layer of every model, so
	// build it once per design here rather than once per layerResult call
	// (it was ~10% of a fully-warm campaign when rebuilt per layer).
	sub := perf.MappingSubKey(d)
	for _, mdl := range e.cfg.Models {
		// Cancellation is honored at model granularity: a partial
		// evaluation is abandoned wholesale (never cached), so there is
		// no half-evaluated Result to corrupt the memo.
		if ctx.Err() != nil {
			return cancelledResult(pt, ctx.Err())
		}
		me := e.evaluateModel(d, sub, r.Energy, mdl)
		r.MapEvaluations += sumTrials(me)
		r.Models = append(r.Models, me)
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

func sumTrials(me ModelEval) int {
	t := 0
	for _, le := range me.Layers {
		t += le.MapTrials
	}
	return t
}

func (e *Evaluator) evaluateModel(d arch.Design, sub string, est energy.Estimate, mdl *workload.Model) ModelEval {
	me := ModelEval{Model: mdl, Layers: make([]LayerEval, len(mdl.Layers))}

	// min(Workers, layers) goroutines pull layer indices, so a stack grown
	// by one layer's search serves the next layers of the design, and a
	// 100-layer model under Workers=1 runs on one goroutine.
	//
	// A panic on a worker would kill the whole process (panics never cross
	// goroutines), so each layer's panic value is captured into its own
	// slot, the worker moves on to the next layer, and the first panic —
	// by layer order, so the choice is deterministic — is re-raised on the
	// calling goroutine after the barrier, where protectedEvaluate's
	// recover converts it into an errored design.
	panics := make([]any, len(mdl.Layers))
	layer := func(i int) {
		defer func() {
			if rec := recover(); rec != nil {
				panics[i] = rec
			}
		}()
		me.Layers[i] = e.evaluateLayer(d, sub, mdl.Layers[i], int64(i))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(e.cfg.Workers, len(mdl.Layers)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(mdl.Layers); i = int(next.Add(1)) - 1 {
				layer(i)
			}
		}()
	}
	wg.Wait()
	for _, rec := range panics {
		if rec != nil {
			panic(rec)
		}
	}

	for i := range me.Layers {
		me.Layers[i].EnergyMJ = layerEnergyMJ(est, me.Layers[i])
	}
	for _, le := range me.Layers {
		if !le.Perf.Valid {
			me.Incompatible = true
			n := le.Perf.IncompatCount
			if n < 1 {
				n = 1
			}
			me.IncompatSeverity += float64(n)
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
	me.MeetsThroughput = me.LatencyMs <= mdl.MaxLatencyMs
	return me
}

func (e *Evaluator) evaluateLayer(d arch.Design, sub string, l workload.Layer, salt int64) LayerEval {
	le := LayerEval{Layer: l}
	ent := e.layerResult(d, sub, l, salt)
	le.Mapping, le.Perf, le.MapTrials = ent.Mapping, ent.perf, ent.Trials
	mult := l.Mult
	if mult < 1 {
		mult = 1
	}
	le.TotalCycles = le.Perf.Cycles * float64(mult)
	return le
}

// layerResult returns the mapping-search outcome for layer l on design d,
// answering from the layer-grain cache when the (shape, sub-key) pair has
// been searched before, joining an identical in-flight search when one is
// running, then probing the persistent cross-run store (when attached), and
// only then running the search — warm-started from the shape's
// previously-best mapping when one is known. Every path returns bit-identical
// search outcomes; only the cost-call counters differ.
func (e *Evaluator) layerResult(d arch.Design, sub string, l workload.Layer, salt int64) layerEntry {
	if e.cfg.DisableLayerCache {
		return e.timedSearchLayer(d, l, salt, nil)
	}
	key := e.layerKeyFor(l, sub, salt)
	e.mu.Lock()
	if ent, ok := e.lcache.get(key); ok {
		e.cLHits.Inc()
		e.mu.Unlock()
		if !ent.derived {
			// An installed record's first use: derive its breakdown once
			// and keep it. A concurrent twin may derive it too; both
			// compute the same entry.
			ent = e.derive(d, l, ent.Entry)
			e.mu.Lock()
			e.lcache.put(key, ent)
			e.mu.Unlock()
		}
		return ent
	}
	if f, ok := e.lflights[key]; ok {
		e.cLDedups.Inc()
		e.mu.Unlock()
		<-f.done
		if f.panicked != nil {
			panic(f.panicked)
		}
		return f.ent
	}
	f := &layerFlight{done: make(chan struct{})}
	e.lflights[key] = f
	e.mu.Unlock()

	// Second-level probe: a search completed by a previous run — or by
	// another job or process sharing the cache directory — answers from
	// disk and never reaches the cost model. The singleflight above
	// already collapses concurrent in-process probes of the same key.
	if e.store != nil {
		if dec, ok := e.store.Get(e.persistKey(key)); ok {
			ent := e.derive(d, l, dec)
			e.mu.Lock()
			e.storeLayer(key, ent)
			delete(e.lflights, key)
			e.mu.Unlock()
			e.cPHits.Inc()
			f.ent = ent
			close(f.done)
			return ent
		}
		e.cPMisses.Inc()
	}

	e.cLMisses.Inc()
	e.mu.Lock()
	var incumbent *mapping.Mapping
	if e.cfg.Mode == PrunedMappings && e.cfg.WarmStart == WarmStrict {
		if m, ok := e.warm.get(key.shape); ok {
			incumbent = &m
			e.cWarmProbes.Inc()
		}
	}
	e.mu.Unlock()

	// A panicking search must still resolve the flight — waiters would
	// otherwise block forever — and must not poison the cache: unregister
	// the flight, hand the panic value to waiters, and re-raise.
	defer func() {
		if rec := recover(); rec != nil {
			e.mu.Lock()
			delete(e.lflights, key)
			e.mu.Unlock()
			f.panicked = rec
			close(f.done)
			panic(rec)
		}
	}()
	ent := e.timedSearchLayer(d, l, salt, incumbent)

	e.mu.Lock()
	e.storeLayer(key, ent)
	delete(e.lflights, key)
	e.mu.Unlock()

	f.ent = ent
	close(f.done)
	if e.store != nil {
		// Persist after waking waiters: the fsync'd append rides on this
		// goroutine, never on the joined ones.
		e.store.Put(e.persistKey(key), ent.Entry)
		e.cPWrites.Inc()
	}
	return ent
}

// persistKey derives the content address of a layer search in the
// cross-run store: the in-memory cache key plus everything that is implicit
// within one evaluator but varies across runs — the mapper mode, the search
// budget, and (in random mode) the fully-resolved rng seed. The cost-model
// version is stamped per record by the store itself.
func (e *Evaluator) persistKey(key layerCacheKey) evalcache.Key {
	pk := evalcache.Key{Shape: key.shape, Sub: key.sub, Mode: e.cfg.Mode.String()}
	switch e.cfg.Mode {
	case RandomMappings:
		// The random search draws from rand.NewSource(Seed*1_000_003+salt)
		// (see searchLayer), so the persisted salt must be that resolved
		// seed — two runs with different Config.Seed must not share
		// random-mode entries.
		pk.Trials = e.cfg.MapTrials
		pk.Salt = e.cfg.Seed*1_000_003 + key.salt
	case PrunedMappings:
		pk.Trials = e.cfg.MapTrials
	default:
		// FixedDataflow derives one mapping analytically: no budget, no
		// seed, so entries are shared across all configurations.
	}
	return pk
}

// storeLayer inserts a search outcome into the layer cache and, when the
// search found a mapping, makes it the shape's warm-start incumbent. Caller
// holds e.mu.
func (e *Evaluator) storeLayer(key layerCacheKey, ent layerEntry) {
	if ent.Found {
		e.warm.put(key.shape, ent.Mapping)
	}
	e.lcache.put(key, ent)
}

// timedSearchLayer runs searchLayer and derives the winner's breakdown,
// recording the latency into the eval_layer_search_seconds histogram; cache
// hits and in-flight joins never reach it, so the histogram measures real
// searches only.
func (e *Evaluator) timedSearchLayer(d arch.Design, l workload.Layer, salt int64, incumbent *mapping.Mapping) layerEntry {
	start := time.Now()
	ent := e.derive(d, l, e.searchLayer(d, l, salt, incumbent))
	e.hLayer.ObserveDuration(time.Since(start))
	return ent
}

// searchLayer runs the configured mapping search for one layer on one
// design and returns its decision, counting the search's cost calls,
// lower-bound prunes and warm fallbacks. The search inner loop runs on one
// perf.EvalContext's Tier-1 fast path (one call per temporal fill for all
// its orderings, cycles only, no allocation); the winner's Tier-2
// breakdown is derive's job. In PrunedMappings mode under WarmStrict the
// enumeration carries a certified cost lower bound and the warm-start
// incumbent when given, whose probe is one more Tier-1 call; WarmOff
// reproduces the fully-cold search.
func (e *Evaluator) searchLayer(d arch.Design, l workload.Layer, salt int64, incumbent *mapping.Mapping) evalcache.Entry {
	var res mapping.Result
	switch e.cfg.Mode {
	case FixedDataflow:
		// One analytical mapping, costed once by derive.
		e.cCostCalls.Inc()
		return evalcache.Entry{Found: true, Mapping: mapping.FixedOutputStationary(l, d.PEs, d.L1Bytes, d.L2Bytes()), Trials: 1}
	case RandomMappings:
		rng := rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + salt))
		res = mapping.RandomSearch(l, e.cfg.MapTrials, rng, perf.NewContext(d, l).EvaluateFill)
	case PrunedMappings:
		ctx := perf.NewContext(d, l)
		cfg := mapping.GenConfig{
			PEs:       d.PEs,
			L1Bytes:   d.L1Bytes,
			L2Bytes:   d.L2Bytes(),
			MinN:      10,
			MaxN:      e.cfg.MapTrials,
			BaseValid: ctx.Valid,
		}
		if e.cfg.WarmStart == WarmStrict {
			cfg.CostLB = ctx.CostLowerBound
			cfg.Incumbent = incumbent
		}
		res = mapping.EnumeratePruned(l, cfg, ctx.EvaluateFill)
	}
	e.cCostCalls.Add(int64(res.CostCalls))
	e.cLBPruned.Add(int64(res.LBPruned))
	if res.WarmFallback {
		e.cWarmFalls.Inc()
	}
	dec := evalcache.Entry{Found: res.Found, Trials: res.Evaluated}
	if res.Found {
		dec.Mapping = res.Best
	}
	return dec
}

// derive completes a layer search's decision with its Tier-2 breakdown. The
// breakdown is a pure function of the design's sub-key, the layer shape and
// the decision, so records carry only the decision, and every path — a
// fresh search, a store hit, Prefill, an installed record on first use —
// derives the breakdown here, once per cached entry. The context is built
// per call and stays on the stack.
func (e *Evaluator) derive(d arch.Design, l workload.Layer, dec evalcache.Entry) layerEntry {
	ent := layerEntry{Entry: dec, derived: true}
	switch {
	case dec.Found:
		ent.perf = perf.NewContext(d, l).Evaluate(dec.Mapping)
		e.cFullEvals.Inc()
	case e.cfg.Mode == RandomMappings:
		ent.perf.Incompat = "no valid mapping found by random search"
	case e.cfg.Mode == PrunedMappings:
		ent.perf.Incompat = "no valid mapping in pruned space"
	}
	return ent
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
