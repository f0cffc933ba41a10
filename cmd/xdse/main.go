// Command xdse regenerates the tables and figures of the Explainable-DSE
// paper (ASPLOS'23) on this repository's substrates. Each -exp value maps
// to one experiment of the per-experiment index in DESIGN.md; budgets are
// reduced by default and restored to paper scale with -full (or
// XDSE_FULL=1).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"xdse/internal/accelmodel"
	"xdse/internal/arch"
	"xdse/internal/dse"
	"xdse/internal/eval"
	"xdse/internal/exp"
	"xdse/internal/fleet"
	"xdse/internal/obs"
	"xdse/internal/search"
	"xdse/internal/workload"
)

func main() {
	// `xdse report <trace.jsonl>` is a subcommand, not a flag: it reads a
	// -trace-out file back and renders the explanation timeline.
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(runReport(os.Args[2:]))
	}
	// `xdse trace` reads the same file back and renders the distributed
	// tracing view: critical paths, self-time by span kind, per-worker
	// queue/compute breakdowns, and Chrome trace_event export.
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(runTrace(os.Args[2:]))
	}
	// `xdse serve` runs the long-lived DSE job daemon (see internal/serve).
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}
	// `xdse cache-gc` retires old records from a persistent evaluation
	// cache by the time they were written (see internal/evalcache).
	if len(os.Args) > 1 && os.Args[1] == "cache-gc" {
		os.Exit(runCacheGC(os.Args[2:]))
	}
	var (
		expName  = flag.String("exp", "fig3", "experiment: fig3|fig4|fig9|fig10|fig11|fig12|table2|table3|table7|fig14|fig15|ablation|energy|multiworkload|joint|all")
		full     = flag.Bool("full", false, "use the paper-scale budgets (2500 iterations, 10000 mapping trials)")
		budget   = flag.Int("budget", 0, "override the static iteration budget")
		seed     = flag.Int64("seed", 1, "random seed")
		models   = flag.String("models", "", "comma-separated model filter (default: full 11-model suite)")
		modelFn  = flag.String("modelfile", "", "workload definition file (see workload.ParseModel) used instead of the built-in suite")
		csvDir   = flag.String("csvdir", "", "directory for per-run CSV acquisition traces (created if missing)")
		explore  = flag.Bool("explore", false, "run one explained Explainable-DSE exploration instead of an experiment")
		mapOnly  = flag.Bool("map", false, "map the selected models onto one fixed design and print per-layer breakdowns")
		design   = flag.String("design", "", "-map design as comma-separated name=value pairs over the space parameters (defaults per parameter: mid-range)")
		spec     = flag.String("spec", "", "design-space specification file for -explore (default: the Table 1 edge space)")
		mode     = flag.String("mode", "fixdf", "-explore mapper mode: fixdf|codesign")
		quiet    = flag.Bool("quiet", false, "-explore: suppress the per-attempt reasoning log")
		workers  = flag.Int("workers", 0, "batch-evaluation worker pool size per run (0 = evaluator default, 1 = serial; results are identical for any value)")
		parallel = flag.Int("parallel", 1, "concurrent optimizer runs per campaign (results are identical for any value)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
		memProf  = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
		ckptDir  = flag.String("checkpoint", "", "checkpoint directory: journal every run's evaluations there so a killed campaign is resumable")
		cacheDir = flag.String("cache-dir", "", "persistent evaluation-cache directory shared across runs: repeated layer searches answer from disk with bit-identical results")
		resume   = flag.Bool("resume", false, "resume from the journals in -checkpoint instead of starting fresh")
		traceOut = flag.String("trace-out", "", "write every run's structured explanation events to this JSONL file (read back with `xdse report`)")
		metrsOut = flag.String("metrics-out", "", "write the campaign's merged metrics to this file in Prometheus text format")
		fleetWrk = flag.String("fleet-workers", "", "comma-separated `xdse serve` worker addresses (host:port,...): shard evaluation batches across them; results stay bit-identical to a local run under any worker failure")
		fleetHI  = flag.Duration("fleet-health-interval", 0, "fleet worker health-probe cadence (0 = 1s default)")
		fleetHA  = flag.Duration("fleet-hedge-after", 0, "hedge a straggling shard dispatch to the next healthy worker after this long (0 = 2.5s, negative disables)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the campaign context: every run stops at its
	// next batch boundary, checkpoints are flushed on the way out, and the
	// partial report still renders. A second signal kills hard.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		// Written on normal completion only; error paths exit directly.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			}
		}()
	}

	cfg := exp.FromEnv()
	if *full {
		cfg = exp.Full()
	}
	if *budget > 0 {
		cfg.Budget = *budget
		cfg.CodesignBudget = *budget
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Parallel = *parallel
	if *modelFn != "" {
		data, err := os.ReadFile(*modelFn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(1)
		}
		m, err := workload.ParseModel(string(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(1)
		}
		cfg.Models = []*workload.Model{m}
	} else if *models != "" {
		var ms []*workload.Model
		for _, name := range strings.Split(*models, ",") {
			m := workload.ByName(strings.TrimSpace(name))
			if m == nil {
				fmt.Fprintf(os.Stderr, "xdse: unknown model %q\n", name)
				os.Exit(2)
			}
			ms = append(ms, m)
		}
		cfg.Models = ms
	}
	cfg.Out = os.Stdout
	if *resume && *ckptDir == "" {
		fmt.Fprintf(os.Stderr, "xdse: -resume requires -checkpoint\n")
		os.Exit(2)
	}
	cfg.CheckpointDir = *ckptDir
	cfg.Resume = *resume
	cfg.CacheDir = *cacheDir
	cfg.CSVDir = *csvDir

	// Distributed execution: shard evaluation batches across a worker fleet.
	// The coordinator is a pure cache warmer (see internal/fleet), so every
	// experiment below produces bit-identical results with or without it. A
	// restarted coordinator resumes from -cache-dir: points whose layer
	// records the store already holds are never dispatched again.
	var fleetCoord *fleet.Coordinator
	if *fleetWrk != "" {
		var addrs []string
		for _, a := range strings.Split(*fleetWrk, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		fleetOpts := fleet.Options{
			HealthInterval: *fleetHI,
			HedgeAfter:     *fleetHA,
			Warnf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "xdse: "+format+"\n", args...)
			},
		}
		c, err := fleet.New(addrs, fleetOpts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(2)
		}
		fleetCoord = c
		cfg.Fleet = c
	}

	// Observability outputs. finishObs is idempotent and must run on every
	// exit path that produced events — including the interrupted one, which
	// exits through os.Exit and therefore skips deferred closers.
	var traceSink *obs.JSONLSink
	if *traceOut != "" {
		s, err := obs.NewJSONLSink(*traceOut, obs.JSONLOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(1)
		}
		traceSink = s
		cfg.Trace = s
	}
	if *metrsOut != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	obsDone := false
	finishObs := func() {
		if obsDone {
			return
		}
		obsDone = true
		if traceSink != nil {
			if err := traceSink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "xdse: trace: %v\n", err)
			}
		}
		if fleetCoord != nil {
			fleetCoord.Close()
			// Permanent faults (4xx, model-version skew) are part of the
			// campaign report: they were not retried, by design.
			if faults := fleetCoord.Faults(); len(faults) > 0 {
				fmt.Fprintf(os.Stderr, "xdse: fleet recorded %d permanent fault(s):\n", len(faults))
				for _, f := range faults {
					fmt.Fprintf(os.Stderr, "xdse:   - %s\n", f)
				}
			}
			if cfg.Metrics != nil {
				// Merged exactly once, here, so multi-campaign invocations
				// (-exp all) never double-count the fleet instruments.
				cfg.Metrics.Merge(fleetCoord.Metrics())
			}
		}
		if cfg.Metrics != nil {
			if err := writeMetricsFile(*metrsOut, cfg.Metrics); err != nil {
				fmt.Fprintf(os.Stderr, "xdse: metrics: %v\n", err)
			}
		}
	}
	defer finishObs()

	if *mapOnly {
		if err := runMapper(cfg, *spec, *design); err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *explore {
		if err := runExplore(ctx, cfg, *spec, *mode, *quiet, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "xdse: %v\n", err)
			os.Exit(1)
		}
		exitIfInterrupted(ctx, *ckptDir, finishObs)
		return
	}

	run := func(cfg exp.Config, name string) {
		switch name {
		case "fig3":
			exp.ReportFig3(cfg, exp.RunFig3(ctx, cfg))
		case "fig4":
			exp.ReportFig4(cfg, exp.RunFig4(ctx, cfg))
		case "fig9", "fig10", "fig12", "table3", "static":
			c := exp.RunCampaign(ctx, cfg, exp.AllTechniques(), cfg.Models, 0)
			exp.ReportFig9(cfg, c, "Fig9 (static exploration)")
			exp.ReportFig10(cfg, c)
			exp.ReportFig12(cfg, c)
			exp.ReportTable3(cfg, c)
			exp.ReportEvalStats(cfg, c)
			s := exp.Summarize(cfg, c, "ExplainableDSE-Codesign")
			fmt.Printf("\nHeadline vs all non-explainable techniques: %.1fx lower latency (vs best other), %.1fx fewer iterations, %.1fx less time\n",
				s.LatencyRatioVsBest, s.IterRatio, s.TimeRatio)
			sc := exp.SummarizeVs(cfg, c, "ExplainableDSE-Codesign", func(t string) bool {
				return strings.HasSuffix(t, "-Codesign") && !strings.Contains(t, "ExplainableDSE")
			})
			fmt.Printf("Headline vs black-box codesign only (like-for-like): %.1fx lower latency, %.1fx fewer iterations, %.1fx less time\n",
				sc.LatencyRatioVsBest, sc.IterRatio, sc.TimeRatio)
		case "table2":
			c := exp.RunCampaign(ctx, cfg, exp.AllTechniques(), cfg.Models, cfg.DynamicBudget)
			exp.ReportFig9(cfg, c, fmt.Sprintf("Table2 (dynamic DSE, %d iterations)", cfg.DynamicBudget))
		case "fig11":
			exp.ReportFig11(cfg, exp.RunFig11(ctx, cfg))
		case "table7":
			exp.ReportTable7(cfg, exp.RunTable7(cfg))
		case "fig14":
			exp.ReportFig14(cfg, exp.RunFig14(ctx, cfg))
		case "fig15":
			exp.ReportFig15(cfg, exp.RunFig15(cfg))
		case "ablation":
			exp.ReportAblations(cfg, exp.RunAblations(ctx, cfg))
		case "energy":
			exp.ReportEnergyObjective(cfg, exp.RunEnergyObjective(ctx, cfg))
		case "multiworkload":
			exp.ReportMultiWorkload(cfg, exp.RunMultiWorkload(ctx, cfg))
		case "joint":
			exp.ReportJointVsTwoStage(cfg, exp.RunJointVsTwoStage(ctx, cfg))
		default:
			fmt.Fprintf(os.Stderr, "xdse: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *expName == "all" {
		for _, name := range allExperiments {
			if ctx.Err() != nil {
				break
			}
			run(experimentConfig(cfg, name), name)
		}
		exitIfInterrupted(ctx, *ckptDir, finishObs)
		return
	}
	run(cfg, *expName)
	exitIfInterrupted(ctx, *ckptDir, finishObs)
}

// allExperiments is what -exp all runs, in order.
var allExperiments = []string{"fig3", "fig4", "fig9", "table2", "fig11", "table7", "fig14", "fig15", "ablation", "energy", "multiworkload", "joint"}

// experimentConfig gives one experiment of -exp all its own CSV and
// checkpoint subdirectory, "<dir>/<name>/", and prefixes the run label and
// trace ID of every event it traces with "<name>/": experiments reuse run
// labels (table2 reruns fig3's runs at another budget), so in one directory
// a later experiment would overwrite an earlier one's CSVs and journals, and
// in one trace file their span IDs would collide.
func experimentConfig(cfg exp.Config, name string) exp.Config {
	if cfg.CSVDir != "" {
		cfg.CSVDir = filepath.Join(cfg.CSVDir, name)
	}
	if cfg.CheckpointDir != "" {
		cfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, name)
	}
	if cfg.Trace != nil {
		cfg.Trace = prefixSink{sink: cfg.Trace, prefix: name + "/"}
	}
	return cfg
}

// prefixSink prefixes each event's non-empty run label and trace ID.
type prefixSink struct {
	sink   obs.Sink
	prefix string
}

// Emit implements obs.Sink.
func (s prefixSink) Emit(ev obs.Event) {
	if ev.Run != "" {
		ev.Run = s.prefix + ev.Run
	}
	if ev.Trace != "" {
		ev.Trace = s.prefix + ev.Trace
	}
	s.sink.Emit(ev)
}

// exitIfInterrupted finishes an interrupted invocation: the partial report
// has already rendered, so flush the observability outputs (finish), say how
// to pick the campaign back up, and exit with the conventional SIGINT
// status. It exits through os.Exit, so finish must not rely on defers.
func exitIfInterrupted(ctx context.Context, ckptDir string, finish func()) {
	if ctx.Err() == nil {
		return
	}
	finish()
	fmt.Fprintf(os.Stderr, "\nxdse: interrupted; report above is partial\n")
	if ckptDir != "" {
		fmt.Fprintf(os.Stderr, "xdse: resumable from %s (re-run with -checkpoint %s -resume)\n", ckptDir, ckptDir)
	} else {
		fmt.Fprintf(os.Stderr, "xdse: run with -checkpoint DIR to make interrupted campaigns resumable\n")
	}
	os.Exit(130)
}

// writeMetricsFile dumps the registry to path in the Prometheus text
// exposition format, self-checking the dump for well-formedness so a broken
// export fails loudly instead of poisoning a scrape.
func writeMetricsFile(path string, reg *obs.Registry) error {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return err
	}
	if err := obs.ValidatePrometheus(b.String()); err != nil {
		return fmt.Errorf("malformed dump: %w", err)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// runReport implements `xdse report [-top N] [-run NAME] [-since-step N]
// <trace.jsonl>`: it reads the structured explanation trace a campaign wrote
// through -trace-out and renders the per-run acquisition timeline plus the
// top-N bottleneck/mitigation summary. A trace whose tail was truncated
// mid-record (a crashed or killed writer) still renders its intact prefix,
// but the command exits non-zero so scripts notice the loss.
func runReport(args []string) int {
	fs := flag.NewFlagSet("xdse report", flag.ExitOnError)
	topN := fs.Int("top", 5, "how many bottlenecks/rules to rank in the summary")
	runFilter := fs.String("run", "", "report only events of this run label (as shown in the untrimmed report headers)")
	sinceStep := fs.Int("since-step", 0, "report only events at attempt/step >= N (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: xdse report [-top N] [-run NAME] [-since-step N] <trace.jsonl>\n")
		return 2
	}
	warnf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "xdse report: "+format+"\n", a...)
	}
	events, torn, err := obs.ReadTraceChecked(fs.Arg(0), warnf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdse report: %v\n", err)
		return 1
	}
	events = filterEvents(events, *runFilter, *sinceStep)
	if len(events) == 0 {
		fmt.Fprintf(os.Stderr, "xdse report: no events match the -run/-since-step filters\n")
		return 1
	}
	if err := obs.WriteReport(os.Stdout, events, *topN); err != nil {
		fmt.Fprintf(os.Stderr, "xdse report: %v\n", err)
		return 1
	}
	if torn {
		fmt.Fprintf(os.Stderr, "xdse report: trace tail truncated mid-record (writer crashed or was killed); report above covers the intact prefix only\n")
		return 1
	}
	return 0
}

// filterEvents applies the report/trace subcommand filters: keep events of
// one run label (empty = all) at attempt >= sinceStep. Span and other
// unstepped events carry attempt 0 and survive any sinceStep <= 0 only.
func filterEvents(events []obs.Event, run string, sinceStep int) []obs.Event {
	if run == "" && sinceStep <= 0 {
		return events
	}
	out := events[:0:0]
	for _, ev := range events {
		if run != "" && ev.Run != run {
			continue
		}
		if ev.Attempt < sinceStep {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// runExplore performs one ad-hoc Explainable-DSE exploration over a
// (possibly user-specified) design space, printing the bottleneck reasoning
// behind every acquisition to w.
func runExplore(ctx context.Context, cfg exp.Config, specPath, mode string, quiet bool, w io.Writer) error {
	specText := arch.EdgeSpaceSpec
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return err
		}
		specText = string(data)
	}
	space, err := arch.ParseSpace(specText)
	if err != nil {
		return err
	}

	tech := exp.Technique{
		Name:  "explore-" + mode,
		Mode:  eval.FixedDataflow,
		Space: func() *arch.Space { return space },
		Make: func(space *arch.Space, cons eval.Constraints) search.Optimizer {
			ex := dse.New(accelmodel.New(space, cons))
			if !quiet {
				ex.Opts.Log = w
			}
			return ex
		},
	}
	switch mode {
	case "fixdf":
	case "codesign":
		tech.Mode = eval.PrunedMappings
	default:
		return fmt.Errorf("unknown -mode %q", mode)
	}

	names := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		names[i] = m.Name
	}
	fmt.Fprintf(w, "exploring %v over %s designs (%s, budget %d)\n\n", names, space.Size(), mode, cfg.Budget)

	run := exp.RunModels(ctx, cfg, tech, cfg.Models, cfg.Budget)
	tr := run.Trace
	if run.Interrupted {
		fmt.Fprintf(w, "\ninterrupted after %d designs; partial results below\n", tr.Evaluations)
	}
	fmt.Fprintf(w, "\n%d designs evaluated, %.0f%% of acquisitions feasible\n",
		tr.Evaluations, tr.FeasibleFraction()*100)
	r := run.Best()
	if r == nil {
		fmt.Fprintln(w, "no feasible design found")
		return nil
	}
	fmt.Fprintf(w, "best: %v\n  latency %.2f ms | area %.1f mm^2 | power %.2f W\n",
		r.Design, r.LatencyMs, r.AreaMM2, r.PowerW)
	return nil
}

// runMapper is the standalone-mapper mode: optimize and report the mapping
// of every layer of the selected workloads on one fixed design — the
// dMazeRunner-style substrate exposed directly.
func runMapper(cfg exp.Config, specPath, designSpec string) error {
	specText := arch.EdgeSpaceSpec
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return err
		}
		specText = string(data)
	}
	space, err := arch.ParseSpace(specText)
	if err != nil {
		return err
	}
	pt, err := parseDesign(space, designSpec)
	if err != nil {
		return err
	}

	ev := eval.New(eval.Config{
		Space:       space,
		Models:      cfg.Models,
		Constraints: eval.EdgeConstraints(),
		Mode:        eval.PrunedMappings,
		MapTrials:   cfg.MapTrials,
		Seed:        cfg.Seed,
	})
	r := ev.Evaluate(pt)
	fmt.Printf("design: %v\n", r.Design)
	fmt.Printf("area %.1f mm^2 | power %.2f W\n\n", r.AreaMM2, r.PowerW)
	for _, me := range r.Models {
		fmt.Printf("%s: %.2f ms (%.0f cycles), %.1f mJ\n", me.Model.Name, me.LatencyMs, me.Cycles, me.EnergyMJ)
		for _, le := range me.Layers {
			if !le.Perf.Valid {
				fmt.Printf("  %-16s INCOMPATIBLE: %s\n", le.Layer.Name, le.Perf.Incompat)
				continue
			}
			op, tn := le.Perf.MaxTNoC()
			bound := "comp"
			switch {
			case le.Perf.TDMA >= le.Perf.TComp && le.Perf.TDMA >= tn:
				bound = "dma"
			case tn >= le.Perf.TComp:
				bound = "noc-" + op.String()
			}
			fmt.Printf("  %-16s %10.0f cyc x%-3d PEs=%-4d %s-bound\n",
				le.Layer.Name, le.Perf.Cycles, le.Layer.Mult, le.Perf.PEsUsed, bound)
		}
	}
	return nil
}

// parseDesign resolves "name=value,..." over the space, defaulting every
// unmentioned parameter to its mid-range value.
func parseDesign(space *arch.Space, designSpec string) (arch.Point, error) {
	pt := space.Initial()
	for i, p := range space.Params {
		pt[i] = len(p.Values) / 2
	}
	if designSpec == "" {
		return pt, nil
	}
	for _, kv := range strings.Split(designSpec, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad design term %q", kv)
		}
		name := parts[0]
		var value int
		if _, err := fmt.Sscanf(parts[1], "%d", &value); err != nil {
			return nil, fmt.Errorf("bad value in %q", kv)
		}
		found := false
		for i, p := range space.Params {
			if p.Name != name {
				continue
			}
			found = true
			pt[i] = p.RoundUpIndex(value)
		}
		if !found {
			return nil, fmt.Errorf("unknown parameter %q", name)
		}
	}
	return pt, nil
}
