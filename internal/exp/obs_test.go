package exp

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"xdse/internal/eval"
	"xdse/internal/evalcache"
	"xdse/internal/obs"
	"xdse/internal/search"
	"xdse/internal/workload"
)

// traceTechniques is the explainable roster across all three mapper modes —
// the acceptance surface for "kill-and-resume stays bit-identical with
// tracing on".
func traceTechniques() []Technique {
	return []Technique{
		explainable("ExplainableDSE-FixDF", eval.FixedDataflow),
		explainable("ExplainableDSE-Random", eval.RandomMappings),
		explainable("ExplainableDSE-Codesign", eval.PrunedMappings),
	}
}

// readTraceT loads a trace file, failing the test on I/O errors.
func readTraceT(t *testing.T, path string) []obs.Event {
	t.Helper()
	events, err := obs.ReadTrace(path, t.Logf)
	if err != nil {
		t.Fatalf("reading trace %s: %v", path, err)
	}
	return events
}

// assertEventPrefix checks that partial is a prefix of ref under the
// determinism projection (WallNs and Seq exempt).
func assertEventPrefix(t *testing.T, partial, ref []obs.Event) {
	t.Helper()
	if len(partial) > len(ref) {
		t.Fatalf("interrupted trace has %d events, reference %d — expected a prefix", len(partial), len(ref))
	}
	for i := range partial {
		if !partial[i].EqualDeterministic(ref[i]) {
			t.Fatalf("interrupted event %d diverges from reference:\n  got  %+v\n  want %+v", i, partial[i], ref[i])
		}
	}
}

// TestTraceKillAndResumeDeterminism is the observability half of the resume
// guarantee: with a JSONL trace sink attached, (a) attaching the sink does
// not change the acquisition sequence, (b) a killed run's event stream is a
// prefix of the uninterrupted reference, and (c) the resumed run — which
// re-executes deterministically, answering replayed designs from the journal
// — re-emits the full reference event stream, event for event.
func TestTraceKillAndResumeDeterminism(t *testing.T) {
	model := workload.ResNet18()
	for _, tech := range traceTechniques() {
		tech := tech
		t.Run(tech.Name, func(t *testing.T) {
			t.Parallel()
			cfg := resumeConfig()
			dir := t.TempDir()

			// Untraced baseline: proves the sink cannot perturb the search.
			plain := RunOne(context.Background(), cfg, tech, model, 0)
			if plain.Interrupted || plain.Err != "" {
				t.Fatalf("baseline run failed: %+v", plain.Err)
			}

			refPath := filepath.Join(dir, "ref.jsonl")
			refSink, err := obs.NewJSONLSink(refPath, obs.JSONLOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tcfg := cfg
			tcfg.Trace = refSink
			ref := RunOne(context.Background(), tcfg, tech, model, 0)
			if err := refSink.Close(); err != nil {
				t.Fatal(err)
			}
			if ref.Interrupted || ref.Err != "" {
				t.Fatalf("reference run failed: %+v", ref.Err)
			}
			if ref.Trace.Fingerprint() != plain.Trace.Fingerprint() {
				t.Fatalf("attaching a trace sink changed the acquisition sequence:\n%s", ref.Trace.Diff(plain.Trace))
			}
			refEvents := readTraceT(t, refPath)
			if len(refEvents) == 0 {
				t.Fatal("reference run emitted no events")
			}

			// Kill mid-run at a unique-evaluation ordinal, then resume.
			ctx, cancel := context.WithCancel(context.Background())
			kcfg := cfg
			kcfg.CheckpointDir = filepath.Join(dir, "ckpt")
			killPath := filepath.Join(dir, "killed.jsonl")
			killSink, err := obs.NewJSONLSink(killPath, obs.JSONLOptions{})
			if err != nil {
				t.Fatal(err)
			}
			kcfg.Trace = killSink
			kcfg.Faults = &eval.FaultPolicy{OnEvaluation: func(ord int) {
				if ord == 3 {
					cancel()
				}
			}}
			killed := RunOne(ctx, kcfg, tech, model, 0)
			cancel()
			if err := killSink.Close(); err != nil {
				t.Fatal(err)
			}
			if !killed.Interrupted {
				t.Fatal("run not marked Interrupted")
			}
			assertEventPrefix(t, readTraceT(t, killPath), refEvents)

			resPath := filepath.Join(dir, "resumed.jsonl")
			resSink, err := obs.NewJSONLSink(resPath, obs.JSONLOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.CheckpointDir = kcfg.CheckpointDir
			rcfg.Resume = true
			rcfg.Trace = resSink
			resumed := RunOne(context.Background(), rcfg, tech, model, 0)
			if err := resSink.Close(); err != nil {
				t.Fatal(err)
			}
			if resumed.Interrupted || resumed.Err != "" {
				t.Fatalf("resumed run failed: %+v", resumed.Err)
			}
			if resumed.Trace.Fingerprint() != ref.Trace.Fingerprint() {
				t.Errorf("resumed trace diverges from reference:\n%s", resumed.Trace.Diff(ref.Trace))
			}
			resEvents := readTraceT(t, resPath)
			if len(resEvents) != len(refEvents) {
				t.Fatalf("resumed run emitted %d events, reference %d", len(resEvents), len(refEvents))
			}
			for i := range refEvents {
				if !resEvents[i].EqualDeterministic(refEvents[i]) {
					t.Fatalf("resumed event %d diverges:\n  got  %+v\n  want %+v", i, resEvents[i], refEvents[i])
				}
			}
		})
	}
}

// TestCampaignTraceAndMetrics wires a campaign through Config.Trace and
// Config.Metrics end to end: events from every run land labeled in one JSONL
// file, the merged registry matches the summed per-run Stats, and the
// Prometheus dump validates.
func TestCampaignTraceAndMetrics(t *testing.T) {
	cfg := resumeConfig()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := obs.NewJSONLSink(path, obs.JSONLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = sink
	cfg.Metrics = obs.NewRegistry()
	cfg.Parallel = 2
	techs := traceTechniques()[:2]
	c := RunCampaign(context.Background(), cfg, techs, cfg.Models, 0)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events := readTraceT(t, path)
	seenRuns := map[string]bool{}
	for _, ev := range events {
		if ev.Run == "" {
			t.Fatalf("campaign event missing run label: %+v", ev)
		}
		seenRuns[ev.Run] = true
	}
	if len(seenRuns) != len(techs) {
		t.Errorf("events from %d runs, want %d: %v", len(seenRuns), len(techs), seenRuns)
	}

	var wantEvals int64
	for _, r := range c.Runs {
		wantEvals += int64(r.Stats.Evaluations)
	}
	if got := cfg.Metrics.Counter("eval_design_evaluations_total").Value(); got != wantEvals {
		t.Errorf("merged registry evaluations = %d, summed run stats = %d", got, wantEvals)
	}
	if cfg.Metrics.Histogram("eval_layer_search_seconds", nil).Count() == 0 {
		t.Error("merged registry recorded no layer-search latencies")
	}

	var b bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidatePrometheus(b.String()); err != nil {
		t.Errorf("campaign metrics dump malformed: %v", err)
	}
}

// TestExperimentsHonourOutputs runs each experiment that explores through
// RunCampaign, RunOne or RunModels without being a plain technique roster,
// and checks that the campaign outputs reach every one of its runs: one CSV
// and one campaign span per run, spans that link into valid trees (which
// also proves the run labels unique), and the evaluator counters merged
// into the registry.
func TestExperimentsHonourOutputs(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		id   string
		runs int
		run  func(Config)
	}{
		{"ablation", 7, func(cfg Config) { RunAblations(ctx, cfg) }},
		{"energy", 2, func(cfg Config) { RunEnergyObjective(ctx, cfg) }},
		{"multiworkload", 3, func(cfg Config) { RunMultiWorkload(ctx, cfg) }},
		{"joint", 2, func(cfg Config) { RunJointVsTwoStage(ctx, cfg) }},
		{"fig4", 2, func(cfg Config) { RunFig4(ctx, cfg) }},
		{"fig14", 4, func(cfg Config) { RunFig14(ctx, cfg) }},
	} {
		t.Run(tc.id, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := tinyConfig(&buf)
			cfg.CSVDir = filepath.Join(t.TempDir(), "csv")
			sink := &obs.CollectSink{}
			cfg.Trace = sink
			cfg.Metrics = obs.NewRegistry()
			tc.run(cfg)

			csvs, err := filepath.Glob(filepath.Join(cfg.CSVDir, "*.csv"))
			if err != nil {
				t.Fatal(err)
			}
			if len(csvs) != tc.runs {
				t.Errorf("%d CSVs, want %d: %v", len(csvs), tc.runs, csvs)
			}
			events := sink.Events()
			campaigns := 0
			for _, ev := range events {
				if ev.Kind == obs.KindSpan && ev.SpanKind == obs.SpanCampaign {
					campaigns++
				}
			}
			if campaigns != tc.runs {
				t.Errorf("%d campaign spans, want %d", campaigns, tc.runs)
			}
			if err := obs.ValidateSpans(events); err != nil {
				t.Errorf("trace spans invalid: %v", err)
			}
			if cfg.Metrics.Counter("eval_design_evaluations_total").Value() == 0 {
				t.Error("no design evaluations reached the metrics registry")
			}
		})
	}
}

// TestExperimentsOpenTheStoreOnce runs the experiments that call RunOne or
// RunModels more than once without RunCampaign over a warm -cache-dir
// store: the store is opened once per experiment, so its load counter
// reaches the metrics registry once, not once per run.
func TestExperimentsOpenTheStoreOnce(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		id  string
		run func(Config)
	}{
		{"multiworkload", func(cfg Config) { RunMultiWorkload(ctx, cfg) }},
		{"joint", func(cfg Config) { RunJointVsTwoStage(ctx, cfg) }},
	} {
		t.Run(tc.id, func(t *testing.T) {
			cfg := tinyConfig(&bytes.Buffer{})
			cfg.CacheDir = t.TempDir()
			tc.run(cfg)
			reg := obs.NewRegistry()
			if _, err := evalcache.Open(cfg.CacheDir, evalcache.Options{Registry: reg}); err != nil {
				t.Fatal(err)
			}
			want := reg.Counter("evalcache_records_loaded_total").Value()

			cfg.Metrics = obs.NewRegistry()
			tc.run(cfg)
			if got := cfg.Metrics.Counter("evalcache_records_loaded_total").Value(); got != want || want == 0 {
				t.Errorf("evalcache_records_loaded_total = %d, want the store's %d records once", got, want)
			}
		})
	}
}

// TestReportEvalStatsGolden pins the evaluation-stats report rendering,
// histogram columns included, against a synthetic campaign with fully
// deterministic counters and latency observations.
func TestReportEvalStatsGolden(t *testing.T) {
	mkReg := func(layer, design, batch float64) *obs.Registry {
		reg := obs.NewRegistry()
		reg.Histogram("eval_layer_search_seconds", nil).Observe(layer)
		reg.Histogram("eval_design_seconds", nil).Observe(design)
		reg.Histogram("search_batch_seconds", nil).Observe(batch)
		return reg
	}
	c := &Campaign{Runs: []Run{
		{
			Technique: "TechA", Model: "M1",
			Trace: &search.Trace{RepeatSteps: 2},
			Stats: eval.Stats{
				Evaluations: 10, CacheHits: 4, Evictions: 1, InflightDedups: 3,
				LayerHits: 20, PersistHits: 7, MapTrials: 1000, CostCalls: 800,
				EvalWall: 1500 * time.Millisecond, PanicsRecovered: 1,
			},
			Batch:   search.BatchReport{Batches: 6, Points: 24},
			Metrics: mkReg(0.5, 0.5, 0.5),
		},
		{
			Technique: "TechB", Model: "M1",
			Trace:   &search.Trace{},
			Stats:   eval.Stats{Evaluations: 8, MapTrials: 640},
			Batch:   search.BatchReport{Batches: 8, Points: 8, PanicsRecovered: 2},
			Metrics: mkReg(0.25, 0.25, 0.25),
		},
	}}
	var buf bytes.Buffer
	cfg := Default()
	cfg.Out = &buf
	ReportEvalStats(cfg, c)
	const golden = `
== Evaluation-layer stats (summed over models) ==
Technique  Evals  CacheHits  Evict  InflightDedup  LayerHits  PersistHits  MapTrials  CostCalls  EvalWall  Batches  BatchPts  Repeats  Panics
---------  -----  ---------  -----  -------------  ---------  -----------  ---------  ---------  --------  -------  --------  -------  ------
TechA      10     4          1      3              20         7            1000       800        1.50s     6        24        2        1
TechB      8      0          0      0              0          0            640        0          0.00s     8        8         0        2

== Evaluation-layer latency (p50/p95/max, seconds) ==
Technique  LayerSearch     DesignEval      Batch
---------  --------------  --------------  --------------
TechA      0.5/0.5/0.5     0.5/0.5/0.5     0.5/0.5/0.5
TechB      0.25/0.25/0.25  0.25/0.25/0.25  0.25/0.25/0.25
`
	if buf.String() != golden {
		t.Errorf("report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), golden)
	}
}
