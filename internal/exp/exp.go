// Package exp contains the experiment drivers that regenerate every table
// and figure of the paper's evaluation (§6 and the appendices). Each
// experiment has a Run function returning structured results plus a Report
// function rendering the same rows/series the paper presents; cmd/xdse and
// the root benchmark harness both drive this package.
package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xdse/internal/accelmodel"
	"xdse/internal/arch"
	"xdse/internal/checkpoint"
	"xdse/internal/dse"
	"xdse/internal/eval"
	"xdse/internal/evalcache"
	"xdse/internal/fleet"
	"xdse/internal/obs"
	"xdse/internal/opt"
	"xdse/internal/search"
	"xdse/internal/workload"
)

// Config scales the experiments. The defaults are reduced from the paper's
// budgets (2500 static iterations, 10,000 mapping trials) so the whole
// suite regenerates in minutes on a laptop; set XDSE_FULL=1 (or call Full)
// to restore the paper's budgets, which take correspondingly longer.
type Config struct {
	// Budget is the static-exploration iteration budget (paper: 2500).
	Budget int
	// CodesignBudget is the iteration budget for codesign explorations
	// of black-box techniques (Explainable-DSE converges on its own).
	CodesignBudget int
	// DynamicBudget is the dynamic-DSE budget of Table 2 (paper: 100).
	DynamicBudget int
	// MapTrials is the per-layer mapping-search budget (paper: 10,000).
	MapTrials int
	// Seed makes runs reproducible.
	Seed int64
	// Workers sizes each evaluator's batch-evaluation worker pool (0 =
	// the evaluator default; 1 = serial). Results are bit-identical for
	// any value: candidate batches are recorded in deterministic order
	// and all optimizer randomness stays on the run's own goroutine.
	Workers int
	// Parallel bounds how many (technique, model) runs of a campaign
	// execute concurrently (0 or 1 = serial). Runs share nothing — each
	// owns its evaluator and RNG — so campaign results are identical for
	// any value, and are always assembled in roster order.
	Parallel int
	// Models is the workload suite (defaults to the 11-model suite).
	Models []*workload.Model
	// Out receives the reports (defaults to os.Stdout).
	Out io.Writer
	// CSVDir, when non-empty, receives one CSV trace per run
	// ("<technique>_<model>.csv"), the raw series behind the figures; it
	// is created if missing.
	CSVDir string
	// CheckpointDir, when non-empty, journals every run's unique design
	// evaluations under "<dir>/<technique>_<model>/", making a killed
	// campaign resumable (see internal/checkpoint).
	CheckpointDir string
	// Resume selects what an existing journal under CheckpointDir means:
	// true replays it (continuing a killed campaign), false discards it
	// and starts fresh.
	Resume bool
	// EvalTimeout, when positive, arms the evaluator's per-evaluation
	// watchdog (see eval.Config.EvalTimeout).
	EvalTimeout time.Duration
	// Faults, when non-nil, injects deterministic evaluation failures —
	// the resilience-testing hook (see eval.FaultPolicy).
	Faults *eval.FaultPolicy
	// Retry configures each evaluator's transient-fault retry layer (see
	// eval.RetryPolicy); the zero value disables retries.
	Retry eval.RetryPolicy
	// Trace, when non-nil, receives every run's structured explanation
	// events, each labeled "<technique>_<model>" (see internal/obs). The
	// sink must be safe for concurrent use when Parallel > 1. Events are
	// derived from — never feed back into — the acquisition sequence, so
	// attaching a sink cannot change campaign results.
	Trace obs.Sink
	// Metrics, when non-nil, accumulates every run's evaluator metrics
	// (counters and latency histograms), merged across the campaign.
	Metrics *obs.Registry
	// CacheDir, when non-empty, persists every layer-search outcome to the
	// cross-run content-addressed store under this directory (see
	// internal/evalcache): a second campaign sharing the directory answers
	// repeated layer searches from disk with bit-identical traces.
	// RunCampaign opens the store once and shares it across runs; a direct
	// RunOne call opens its own.
	CacheDir string
	// Cache, when non-nil, is an already-open persistent store shared by
	// every run (the serve daemon injects its own); CacheDir is ignored.
	Cache *evalcache.Store
	// Fleet, when non-nil, shards every single-model run's evaluation
	// batches across a pool of xdse serve workers (see internal/fleet):
	// each batch's points that need a layer search are dispatched, and the
	// returned content-addressed layer records are installed before local
	// evaluation. The hook is result neutral — traces and fingerprints are
	// bit-identical with or without a fleet, under any worker failure,
	// hedged duplicate, worker marked unreachable by its dispatch faults,
	// injected chaos fault, or coordinator crash-resume (points whose
	// records CacheDir's store already holds are answered locally, so a
	// restarted coordinator has nothing to re-dispatch) — so attaching one
	// changes only wall-clock time. The caller owns the coordinator's
	// lifecycle (fleet.New / Close).
	Fleet *fleet.Coordinator
}

// Default returns the reduced-budget configuration.
func Default() Config {
	return Config{
		Budget:         300,
		CodesignBudget: 80,
		DynamicBudget:  100,
		MapTrials:      500,
		Seed:           1,
		Models:         workload.Suite(),
		Out:            os.Stdout,
	}
}

// Full returns the paper-scale configuration.
func Full() Config {
	c := Default()
	c.Budget = 2500
	c.CodesignBudget = 2500
	c.MapTrials = 10000
	return c
}

// FromEnv returns Full when XDSE_FULL=1, else Default.
func FromEnv() Config {
	if os.Getenv("XDSE_FULL") == "1" {
		return Full()
	}
	return Default()
}

func (c Config) out() io.Writer {
	if c.Out != nil {
		return c.Out
	}
	return os.Stdout
}

// Technique describes one DSE technique under a mapper mode: the optimizer
// and the evaluator inputs an exploration with it varies.
type Technique struct {
	Name string
	Mode eval.MapperMode
	// Objective is the cost the evaluator minimizes (zero value:
	// eval.MinLatency).
	Objective eval.Objective
	// Space builds the design space to explore; nil selects arch.EdgeSpace.
	Space func() *arch.Space
	// Make constructs a fresh optimizer; Explainable-DSE needs the space
	// and constraints to build its domain bottleneck model.
	Make func(space *arch.Space, cons eval.Constraints) search.Optimizer
}

func blackBox(name string, mode eval.MapperMode, mk func() search.Optimizer) Technique {
	return Technique{
		Name: name,
		Mode: mode,
		Make: func(*arch.Space, eval.Constraints) search.Optimizer { return mk() },
	}
}

func explainable(name string, mode eval.MapperMode) Technique {
	return Technique{
		Name: name,
		Mode: mode,
		Make: func(space *arch.Space, cons eval.Constraints) search.Optimizer {
			return dse.New(accelmodel.New(space, cons))
		},
	}
}

// FixDFTechniques returns the Fig. 9 fixed-dataflow technique roster.
func FixDFTechniques() []Technique {
	return []Technique{
		blackBox("GridSearch-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Grid{} }),
		blackBox("RandomSearch-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Random{} }),
		blackBox("SimulatedAnnealing-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Anneal{} }),
		blackBox("GeneticAlgorithm-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Genetic{} }),
		blackBox("BayesianOpt-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Bayes{} }),
		blackBox("HyperMapper2.0-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.HyperMapper{} }),
		blackBox("ReinforcementLearning-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.RL{} }),
		explainable("ExplainableDSE-FixDF", eval.FixedDataflow),
	}
}

// CodesignTechniques returns the Fig. 9 hardware/mapping codesign roster.
func CodesignTechniques() []Technique {
	return []Technique{
		blackBox("RandomSearch-Codesign", eval.RandomMappings, func() search.Optimizer { return opt.Random{} }),
		blackBox("HyperMapper2.0-Codesign", eval.RandomMappings, func() search.Optimizer { return opt.HyperMapper{} }),
		explainable("ExplainableDSE-Codesign", eval.PrunedMappings),
	}
}

// AllTechniques returns the combined roster in the paper's table order.
func AllTechniques() []Technique {
	return append(FixDFTechniques(), CodesignTechniques()...)
}

// TechniqueByName resolves a technique from the combined roster by its
// exact name — the job-spec currency of the serving layer (internal/serve).
func TechniqueByName(name string) (Technique, bool) {
	for _, t := range AllTechniques() {
		if t.Name == name {
			return t, true
		}
	}
	return Technique{}, false
}

// Run is the outcome of one (technique, model) exploration.
type Run struct {
	Technique string
	// Model names the explored model; a run over several models joins
	// their names with "+".
	Model string
	Mode  eval.MapperMode
	Trace *search.Trace
	// Evaluations is the number of unique design points evaluated.
	Evaluations int
	// Elapsed is the exploration wall-clock time.
	Elapsed time.Duration
	// Stats are the evaluator's counters for this run (cache hits,
	// in-flight dedups, mapping-search trials, evaluation wall time).
	Stats eval.Stats
	// Batch reports the run's batch-evaluation layer activity.
	Batch search.BatchReport
	// Err is non-empty when the run itself crashed (an optimizer panic
	// escaped the evaluation layer's containment): the trace is whatever
	// was recorded before the crash, and the campaign carried on.
	Err string
	// Resumed is the number of journaled evaluations replayed into this
	// run from a previous (killed) invocation.
	Resumed int
	// Interrupted reports the run's context was cancelled before the
	// exploration completed; the trace is a clean batch-boundary prefix.
	Interrupted bool
	// Metrics is the run's private metrics registry (the counters behind
	// Stats plus latency histograms); RunCampaign merges every run's
	// registry into Config.Metrics when one is attached.
	Metrics *obs.Registry
}

// RunOne performs one exploration of a model with a technique. A budget of
// zero or less selects the configuration's per-technique static budget.
// Cancelling ctx stops the exploration at the next batch boundary and
// returns the partial run with Interrupted set; with cfg.CheckpointDir the
// completed evaluations are journaled, so invoking the same run again with
// cfg.Resume produces a final trace bit-identical to an uninterrupted one.
func RunOne(ctx context.Context, cfg Config, tech Technique, model *workload.Model, budget int) Run {
	return RunModels(ctx, cfg, tech, []*workload.Model{model}, budget)
}

// RunModels is RunOne for one design serving every model in models (the
// §4.4 multi-workload aggregation). It is the only code that builds an
// exploration's evaluator, so every output in cfg applies to every
// experiment. The run label "<technique>_<models>" names the run's CSV,
// journal directory and trace, so it must be unique within an experiment.
// A multi-model run skips cfg.Fleet, whose requests name one model.
func RunModels(ctx context.Context, cfg Config, tech Technique, models []*workload.Model, budget int) Run {
	if ctx == nil {
		ctx = context.Background()
	}
	if budget <= 0 {
		budget = cfg.budgetFor(tech)
	}
	cfg = cfg.withCache()
	space := arch.EdgeSpace()
	if tech.Space != nil {
		space = tech.Space()
	}
	cons := eval.EdgeConstraints()
	ev := eval.New(eval.Config{
		Space:        space,
		Models:       models,
		Constraints:  cons,
		Mode:         tech.Mode,
		Objective:    tech.Objective,
		MapTrials:    cfg.MapTrials,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		EvalTimeout:  cfg.EvalTimeout,
		Faults:       cfg.Faults,
		Retry:        cfg.Retry,
		PersistCache: cfg.Cache,
	})
	o := tech.Make(space, cons)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	run := Run{Technique: tech.Name, Model: strings.Join(names, "+"), Mode: tech.Mode}
	label := fmt.Sprintf("%s_%s", sanitize(run.Technique), sanitize(run.Model))
	warnf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "exp: "+format+"\n", args...)
	}
	var prob *search.Problem
	if cfg.CheckpointDir != "" {
		dir := filepath.Join(cfg.CheckpointDir, label)
		j, err := checkpoint.Open(dir, checkpoint.Options{Fresh: !cfg.Resume, Warnf: warnf})
		if err != nil {
			warnf("checkpoint %s unavailable, running unjournaled: %v", dir, err)
			prob = ev.ProblemCtx(ctx, budget)
		} else {
			defer j.Close()
			run.Resumed = len(j.Replayed())
			prob = ev.ResumableProblem(ctx, budget, j, warnf)
		}
	} else {
		prob = ev.ProblemCtx(ctx, budget)
	}
	// Observability is strictly opt-in: the problem carries no event sink
	// unless the campaign asked for a trace or a metrics registry, so the
	// engine's explanation-rendering paths stay disabled (and free) in
	// plain runs. The metrics sink folds event-derived counters (rule
	// firings, bottleneck factors) into the run's own registry; the trace
	// sink gets every event stamped with this run's label.
	var camp obs.Span
	if cfg.Trace != nil || cfg.Metrics != nil {
		prob.Events = obs.Multi(obs.WithRun(cfg.Trace, label), obs.NewMetricsSink(ev.Metrics()))
		if cfg.Trace != nil {
			// The tracing spine: one trace per run, rooted in a campaign span
			// that every batch span parents to. The trace ID is the run label
			// and span IDs count from a per-run sequence — fully deterministic,
			// so a resumed run re-emits identical identities and attaching the
			// tracer provably cannot perturb fingerprints. The flip side:
			// repeating the same (technique, model) run into one shared sink
			// collides IDs; give repeat campaigns separate -trace-out files.
			tracer := obs.NewTracer(prob.Events, "")
			camp = tracer.StartRoot(label, obs.SpanCampaign, label)
			prob.Tracer = tracer
			prob.TraceSpan = camp.Context()
		}
	}
	if cfg.Fleet != nil && len(models) == 1 {
		// Remote batch preparation: a pure cache warmer, so the optimizer
		// below sees identical results whether the fleet helped or not.
		prob.Prepare = cfg.Fleet.Prepare(ev, models[0].Name)
	}
	start := time.Now()
	tr, panicErr := runOptimizer(o, prob, rand.New(rand.NewSource(cfg.Seed)))
	camp.Err = panicErr
	if ctx.Err() == nil {
		// An interrupted run suppresses the campaign-end span so its trace
		// stays a strict event-for-event prefix of an uninterrupted run's
		// (the resume re-emits the full stream, campaign span included).
		camp.End()
	}
	run.Err = panicErr
	run.Interrupted = ctx.Err() != nil
	if cfg.CSVDir != "" && !run.Interrupted {
		writeTraceCSV(filepath.Join(cfg.CSVDir, label+".csv"), tr)
	}
	run.Trace = tr
	run.Evaluations = ev.Evaluations()
	run.Elapsed = time.Since(start)
	run.Stats = ev.Stats()
	run.Batch = prob.Stats.Report()
	run.Metrics = ev.Metrics()
	if cfg.Metrics != nil {
		cfg.Metrics.Merge(ev.Metrics())
	}
	return run
}

// Best returns the evaluation of the run's best feasible design, read from
// its trace, or nil when the run found none.
func (r *Run) Best() *eval.Result {
	if r.Trace.Best == nil {
		return nil
	}
	res, _ := search.ResolveRaw(r.Trace.BestCosts.Raw).(*eval.Result)
	return res
}

// runOptimizer runs one optimizer with last-resort panic containment: a
// panic that escapes the evaluation layer (a bug in the optimizer itself)
// is reported on the run instead of aborting the campaign. The returned
// trace is never nil.
func runOptimizer(o search.Optimizer, p *search.Problem, rng *rand.Rand) (tr *search.Trace, panicErr string) {
	defer func() {
		if rec := recover(); rec != nil {
			panicErr = fmt.Sprintf("optimizer panic: %v", rec)
		}
		if tr == nil {
			tr = &search.Trace{Name: o.Name()}
		}
	}()
	tr = o.Run(p, rng)
	return tr, ""
}

// budgetFor picks the iteration budget for a technique at static scale.
func (c Config) budgetFor(tech Technique) int {
	if tech.Mode == eval.FixedDataflow {
		return c.Budget
	}
	return c.CodesignBudget
}

// Campaign is a set of runs covering techniques x models at one budget
// scale; the Fig. 9/10/12 and Table 3 views all render from one campaign.
type Campaign struct {
	Runs []Run
}

// Get returns the run for (technique, model), or nil.
func (c *Campaign) Get(tech, model string) *Run {
	for i := range c.Runs {
		if c.Runs[i].Technique == tech && c.Runs[i].Model == model {
			return &c.Runs[i]
		}
	}
	return nil
}

// RunCampaign explores every model with every technique. Budget <= 0 uses
// the per-technique static budget from cfg. When cfg.Parallel > 1, up to
// that many runs execute concurrently; every run is self-contained (own
// evaluator, own RNG), and results land in a positionally-indexed slice, so
// the campaign is identical to a serial one in both content and order.
//
// Resilience: a run that crashes outright (even outside the optimizer, e.g.
// during evaluator construction) is reported through its Run.Err — the
// campaign always completes with one Run per (technique, model) pair.
// Cancelling ctx stops every in-progress run at its next batch boundary and
// skips not-yet-started ones (their runs come back Interrupted with empty
// traces).
func RunCampaign(ctx context.Context, cfg Config, techs []Technique, models []*workload.Model, budget int) *Campaign {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withCache()
	type job struct {
		tech  Technique
		model *workload.Model
	}
	var jobs []job
	for _, tech := range techs {
		for _, m := range models {
			jobs = append(jobs, job{tech, m})
		}
	}
	runs := make([]Run, len(jobs))
	safeRun := func(i int, j job) {
		defer func() {
			if rec := recover(); rec != nil {
				runs[i] = Run{
					Technique: j.tech.Name,
					Model:     j.model.Name,
					Mode:      j.tech.Mode,
					Trace:     &search.Trace{Name: j.tech.Name},
					Err:       fmt.Sprintf("run panic: %v", rec),
				}
			}
		}()
		runs[i] = RunOne(ctx, cfg, j.tech, j.model, budget)
	}
	// Note: the coordinator's fleet_* instruments are NOT merged into
	// cfg.Metrics here — the coordinator outlives campaigns (a process may
	// run several over one fleet), so its owner merges c.Fleet.Metrics()
	// exactly once at shutdown (cmd/xdse does this before -metrics-out).
	if cfg.Parallel <= 1 {
		for i, j := range jobs {
			safeRun(i, j)
		}
		return &Campaign{Runs: runs}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallel)
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			safeRun(i, j)
		}(i, j)
	}
	wg.Wait()
	return &Campaign{Runs: runs}
}

// withCache opens CacheDir's persistent store as Cache unless one is
// already open, so every run of an experiment shares one store: the journal
// is loaded, and its load and corruption counters are registered in
// Metrics, once, and a layer search one run did is an in-memory hit for
// the next. An unopenable store degrades to uncached runs, never a failure.
func (c Config) withCache() Config {
	if c.Cache != nil || c.CacheDir == "" {
		return c
	}
	store, err := evalcache.Open(c.CacheDir, evalcache.Options{
		Registry: c.Metrics,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "exp: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "exp: persistent cache %s unavailable, running uncached: %v\n", c.CacheDir, err)
		return c
	}
	c.Cache = store
	return c
}

// writeTraceCSV dumps one run's acquisition trace, creating its directory;
// export failures are reported on stderr but never fail the experiment.
func writeTraceCSV(name string, tr *search.Trace) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "exp: trace export: %v\n", err)
		return
	}
	f, err := os.Create(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "exp: trace export: %v\n", err)
		return
	}
	defer f.Close()
	if err := tr.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "exp: trace export: %v\n", err)
	}
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// fmtLatency renders a best-objective cell like the paper's tables: the
// latency in ms, or "-" when no feasible solution was found.
func fmtLatency(tr *search.Trace) string {
	if tr.Best == nil {
		return "-"
	}
	return fmt.Sprintf("%.1f", tr.BestObjective())
}
