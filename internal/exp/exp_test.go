package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"xdse/internal/eval"
	"xdse/internal/workload"
)

// tinyConfig is a seconds-scale configuration for test runs.
func tinyConfig(buf *bytes.Buffer) Config {
	cfg := Default()
	cfg.Budget = 40
	cfg.CodesignBudget = 15
	cfg.DynamicBudget = 25
	cfg.MapTrials = 120
	cfg.Models = []*workload.Model{workload.ResNet18()}
	cfg.Out = buf
	return cfg
}

func TestConfigDefaultsAndFull(t *testing.T) {
	d := Default()
	if d.Budget != 300 || d.DynamicBudget != 100 || len(d.Models) != 11 {
		t.Fatalf("defaults wrong: %+v", d)
	}
	f := Full()
	if f.Budget != 2500 || f.MapTrials != 10000 {
		t.Fatalf("full config wrong: %+v", f)
	}
	t.Setenv("XDSE_FULL", "1")
	if FromEnv().Budget != 2500 {
		t.Fatal("XDSE_FULL ignored")
	}
	t.Setenv("XDSE_FULL", "")
	if FromEnv().Budget != 300 {
		t.Fatal("default env config wrong")
	}
}

func TestTechniqueRosters(t *testing.T) {
	fix := FixDFTechniques()
	if len(fix) != 8 {
		t.Fatalf("fixed-DF roster = %d techniques", len(fix))
	}
	for _, tech := range fix {
		if tech.Mode != eval.FixedDataflow {
			t.Errorf("%s: mode %v", tech.Name, tech.Mode)
		}
	}
	co := CodesignTechniques()
	if len(co) != 3 {
		t.Fatalf("codesign roster = %d techniques", len(co))
	}
	if co[2].Name != "ExplainableDSE-Codesign" || co[2].Mode != eval.PrunedMappings {
		t.Fatalf("codesign explainable entry wrong: %+v", co[2])
	}
	if len(AllTechniques()) != 11 {
		t.Fatal("combined roster size wrong")
	}
}

func TestRunOneAndCampaign(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	techs := []Technique{FixDFTechniques()[1], FixDFTechniques()[7]} // random + explainable
	c := RunCampaign(context.Background(), cfg, techs, cfg.Models, 0)
	if len(c.Runs) != 2 {
		t.Fatalf("campaign runs = %d", len(c.Runs))
	}
	r := c.Get("ExplainableDSE-FixDF", "ResNet18")
	if r == nil {
		t.Fatal("campaign lookup failed")
	}
	if r.Evaluations == 0 || r.Evaluations > cfg.Budget {
		t.Fatalf("evaluations = %d", r.Evaluations)
	}
	if c.Get("nope", "ResNet18") != nil {
		t.Fatal("lookup invented a run")
	}

	ReportFig9(cfg, c, "test")
	ReportFig10(cfg, c)
	ReportFig12(cfg, c)
	ReportTable3(cfg, c)
	out := buf.String()
	for _, want := range []string{"RandomSearch-FixDF", "ExplainableDSE-FixDF", "ResNet18", "Fig12", "Table3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}

	s := Summarize(cfg, c, "ExplainableDSE-FixDF")
	if s.IterRatio <= 0 || s.LatencyRatioVsBest <= 0 {
		t.Fatalf("summary = %+v", s)
	}
}

// TestParallelCampaignMatchesSerial pins the campaign-level determinism
// contract: raising Workers (per-run batch pool) and Parallel (concurrent
// runs) must leave every run's trace bit-identical to the serial campaign
// and keep the roster order. The mapping searches themselves must do the
// same work too: each (shape, sub-key) is searched once however the layer
// workers interleave, and a search's pruning depends on nothing but its
// own inputs, so the search counters match the serial run's exactly.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	var bufA, bufB bytes.Buffer
	// Random and explainable fixed-dataflow, and the explainable codesign
	// run, whose pruned mapping searches the counter check is for.
	techs := []Technique{FixDFTechniques()[1], FixDFTechniques()[7], CodesignTechniques()[2]}

	serialCfg := tinyConfig(&bufA)
	serialCfg.Budget = 20
	serialCfg.Workers = 1
	serial := RunCampaign(context.Background(), serialCfg, techs, serialCfg.Models, 0)

	parCfg := tinyConfig(&bufB)
	parCfg.Budget = 20
	parCfg.Workers = 4
	parCfg.Parallel = 2
	par := RunCampaign(context.Background(), parCfg, techs, parCfg.Models, 0)

	if len(serial.Runs) != len(par.Runs) {
		t.Fatalf("campaign sizes differ: %d vs %d", len(serial.Runs), len(par.Runs))
	}
	for i := range serial.Runs {
		a, b := serial.Runs[i], par.Runs[i]
		if a.Technique != b.Technique || a.Model != b.Model {
			t.Fatalf("run %d order differs: %s/%s vs %s/%s",
				i, a.Technique, a.Model, b.Technique, b.Model)
		}
		if a.Trace.Evaluations != b.Trace.Evaluations || a.Trace.RepeatSteps != b.Trace.RepeatSteps {
			t.Fatalf("%s: accounting differs: %d/%d evaluations, %d/%d repeats", a.Technique,
				a.Trace.Evaluations, b.Trace.Evaluations, a.Trace.RepeatSteps, b.Trace.RepeatSteps)
		}
		if len(a.Trace.Steps) != len(b.Trace.Steps) {
			t.Fatalf("%s: %d vs %d steps", a.Technique, len(a.Trace.Steps), len(b.Trace.Steps))
		}
		for s := range a.Trace.Steps {
			sa, sb := a.Trace.Steps[s], b.Trace.Steps[s]
			if sa.Point.Key() != sb.Point.Key() || sa.Costs.Objective != sb.Costs.Objective {
				t.Fatalf("%s: step %d diverged: %v vs %v", a.Technique, s, sa.Point, sb.Point)
			}
		}
		if b.Batch.Points == 0 || b.Batch.Batches == 0 {
			t.Fatalf("%s: batch layer unused: %+v", b.Technique, b.Batch)
		}
		if b.Stats.Evaluations == 0 {
			t.Fatalf("%s: evaluator stats missing: %+v", b.Technique, b.Stats)
		}
		sa, sb := a.Stats, b.Stats
		if sa.CostCalls != sb.CostCalls || sa.LBPruned != sb.LBPruned ||
			sa.MapTrials != sb.MapTrials || sa.LayerMisses != sb.LayerMisses {
			t.Errorf("%s: search work depends on Workers: serial priced %d, pruned %d, trials %d, searches %d; parallel %d, %d, %d, %d",
				a.Technique, sa.CostCalls, sa.LBPruned, sa.MapTrials, sa.LayerMisses,
				sb.CostCalls, sb.LBPruned, sb.MapTrials, sb.LayerMisses)
		}
	}

	ReportEvalStats(parCfg, par)
	out := bufB.String()
	for _, want := range []string{"Evaluation-layer stats", "CacheHits", "InflightDedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("eval-stats report missing %q", want)
		}
	}
}

func TestFig4(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	runs := RunFig4(context.Background(), cfg)
	if len(runs) != 2 {
		t.Fatalf("fig4 runs = %d", len(runs))
	}
	// The toy space varies only PEs and L2.
	space := Fig4Space()
	if space.Params[1].Options() != 1 || space.Params[0].Options() != 7 {
		t.Fatal("fig4 space pinning wrong")
	}
	ReportFig4(cfg, runs)
	if !strings.Contains(buf.String(), "CONV5_2b") {
		t.Fatal("fig4 report missing layer name")
	}
	// The explainable walk must find a feasible design on the toy space.
	if runs[1].Trace.Best == nil {
		t.Fatal("Explainable-DSE failed on the toy space")
	}
}

func TestTable7(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Models = workload.Suite()
	rows := RunTable7(cfg)
	if len(rows) != 11 {
		t.Fatalf("table7 rows = %d", len(rows))
	}
	for _, r := range rows {
		if !(r.A > r.B && r.B >= r.C && r.F > r.G && r.G > r.H) {
			t.Errorf("%s: pruning ordering violated: A=%v B=%v C=%v F=%v G=%v H=%v",
				r.Model, r.A, r.B, r.C, r.F, r.G, r.H)
		}
	}
	ReportTable7(cfg, rows)
	if !strings.Contains(buf.String(), "10^") {
		t.Fatal("table7 report missing magnitudes")
	}
}

func TestFig15(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.MapTrials = 150
	res := RunFig15(cfg)
	if len(res) != 4 {
		t.Fatalf("fig15 techniques = %d", len(res))
	}
	for _, r := range res {
		if len(r.LayerCycles) != 9 {
			t.Fatalf("%s: layers = %d", r.Technique, len(r.LayerCycles))
		}
	}
	ReportFig15(cfg, res)
	if !strings.Contains(buf.String(), "RandomSearch") {
		t.Fatal("fig15 report incomplete")
	}
}

func TestFig14(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.CodesignBudget = 25
	rows := RunFig14(context.Background(), cfg)
	if len(rows) != 4 {
		t.Fatalf("fig14 rows = %d", len(rows))
	}
	for _, r := range rows {
		if _, ok := r.Refs["EdgeTPU"]; !ok {
			t.Fatalf("%s: EdgeTPU reference missing", r.Model)
		}
	}
	// Eyeriss only publishes VGG16 among our case-study models.
	ReportFig14(cfg, rows)
	if !strings.Contains(buf.String(), "EdgeTPU") {
		t.Fatal("fig14 report incomplete")
	}
}

func TestFig11Checkpoints(t *testing.T) {
	cps := fig11Checkpoints(120)
	if cps[0] != 1 || cps[len(cps)-1] != 120 {
		t.Fatalf("checkpoints = %v", cps)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("checkpoints not increasing: %v", cps)
		}
	}
	if got := fig11Checkpoints(100); got[len(got)-1] != 100 {
		t.Fatalf("exact budget missing: %v", got)
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Budget = 60
	res := RunAblations(context.Background(), cfg)
	if len(res) != 7 {
		t.Fatalf("ablations = %d", len(res))
	}
	names := map[string]bool{}
	for _, r := range res {
		names[r.Variant] = true
	}
	for _, want := range []string{"paper-defaults", "aggregate-max", "no-budget-aware-update", "joint-acquisition"} {
		if !names[want] {
			t.Fatalf("ablation %q missing", want)
		}
	}
	ReportAblations(cfg, res)
	if !strings.Contains(buf.String(), "paper-defaults") {
		t.Fatal("ablation report incomplete")
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("A", "Blong")
	tb.add("x", "y")
	tb.add("longer", "z")
	tb.write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "------") {
		t.Fatalf("separator missing: %q", lines[1])
	}
}

func TestShortModel(t *testing.T) {
	if shortModel("VisionTransformer") != "ViT" || shortModel("BERT") != "BERT" {
		t.Fatal("short names wrong")
	}
}

// TestFig4ExplainableWalkIsNearMonotone pins the paper's headline behavior
// on the toy space: Explainable-DSE reduces the objective at (almost) every
// early acquisition and lands the region's optimum.
func TestFig4ExplainableWalkIsNearMonotone(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	runs := RunFig4(context.Background(), cfg)
	ex := runs[1]
	if ex.Technique != "ExplainableDSE" {
		t.Fatalf("unexpected run order: %s", ex.Technique)
	}
	if ex.Trace.Best == nil {
		t.Fatal("no feasible design")
	}
	// The toy space optimum is ~1.18 ms (512 padded MACs at 256+ PEs with
	// the full 4 MB scratchpad); the walk must land within 10%.
	if best := ex.Trace.BestObjective(); best > 1.18*1.1 {
		t.Fatalf("best = %.3f ms, want ~1.18", best)
	}
	// Count strictly improving early acquisitions (the paper: reduction
	// at almost every attempt).
	improving := 0
	prev := ex.Trace.Steps[0].BestSoFar
	for _, s := range ex.Trace.Steps[1:8] {
		if s.BestSoFar < prev {
			improving++
		}
		prev = s.BestSoFar
	}
	if improving < 4 {
		t.Fatalf("only %d of the first 7 acquisitions improved", improving)
	}
}
