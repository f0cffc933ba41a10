package exp

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"xdse/internal/eval"
	"xdse/internal/opt"
	"xdse/internal/search"
	"xdse/internal/workload"
)

// resumeConfig is the seconds-scale configuration the kill-and-resume tests
// share: single worker so unique-evaluation ordinals are deterministic.
func resumeConfig() Config {
	cfg := Default()
	cfg.Budget = 12
	cfg.CodesignBudget = 8
	cfg.MapTrials = 60
	cfg.Models = []*workload.Model{workload.ResNet18()}
	cfg.Out = &bytes.Buffer{}
	cfg.Workers = 1
	return cfg
}

// resumeTechniques pairs Explainable-DSE with one black-box baseline in
// every mapper mode, so the resume contract is proven for the engine and
// for the batch-streaming baselines alike.
func resumeTechniques() []Technique {
	return []Technique{
		explainable("ExplainableDSE-FixDF", eval.FixedDataflow),
		explainable("ExplainableDSE-Random", eval.RandomMappings),
		explainable("ExplainableDSE-Codesign", eval.PrunedMappings),
		blackBox("SimulatedAnnealing-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Anneal{} }),
		blackBox("SimulatedAnnealing-Random", eval.RandomMappings, func() search.Optimizer { return opt.Anneal{} }),
		blackBox("SimulatedAnnealing-Codesign", eval.PrunedMappings, func() search.Optimizer { return opt.Anneal{} }),
	}
}

// assertStepPrefix checks the interrupted trace is a clean prefix of the
// reference acquisition sequence — the batch-boundary cancellation contract.
func assertStepPrefix(t *testing.T, partial, ref *search.Trace) {
	t.Helper()
	if len(partial.Steps) >= len(ref.Steps) {
		t.Fatalf("interrupted trace has %d steps, reference %d — expected a strict prefix",
			len(partial.Steps), len(ref.Steps))
	}
	for i, s := range partial.Steps {
		r := ref.Steps[i]
		if !s.Point.Equal(r.Point) || s.Costs.Objective != r.Costs.Objective {
			t.Fatalf("interrupted step %d diverges from reference: %s vs %s",
				i, s.Point.Key(), r.Point.Key())
		}
	}
}

// TestKillAndResumeDeterminism is the headline resilience guarantee: a run
// cancelled at an arbitrary unique-evaluation index and resumed from its
// journal finishes bit-identical — same acquisition steps, same best, same
// unique-design budget accounting — to a run that was never interrupted.
func TestKillAndResumeDeterminism(t *testing.T) {
	model := workload.ResNet18()
	for _, tech := range resumeTechniques() {
		tech := tech
		t.Run(tech.Name, func(t *testing.T) {
			t.Parallel()
			cfg := resumeConfig()

			// Uninterrupted reference.
			ref := RunOne(context.Background(), cfg, tech, model, 0)
			if ref.Interrupted || ref.Err != "" {
				t.Fatalf("reference run failed: %+v", ref.Err)
			}
			refFP := ref.Trace.Fingerprint()

			for _, killAt := range []int{1, 3, 5} {
				ctx, cancel := context.WithCancel(context.Background())
				kcfg := cfg
				kcfg.CheckpointDir = t.TempDir()
				kcfg.Faults = &eval.FaultPolicy{OnEvaluation: func(ord int) {
					if ord == killAt {
						cancel()
					}
				}}
				killed := RunOne(ctx, kcfg, tech, model, 0)
				cancel()
				if !killed.Interrupted {
					t.Fatalf("killAt=%d: run not marked Interrupted", killAt)
				}
				assertStepPrefix(t, killed.Trace, ref.Trace)

				rcfg := cfg
				rcfg.CheckpointDir = kcfg.CheckpointDir
				rcfg.Resume = true
				resumed := RunOne(context.Background(), rcfg, tech, model, 0)
				if resumed.Interrupted || resumed.Err != "" {
					t.Fatalf("killAt=%d: resumed run failed: %+v", killAt, resumed.Err)
				}
				if resumed.Resumed == 0 {
					t.Errorf("killAt=%d: resumed run replayed no journaled evaluations", killAt)
				}
				if got := resumed.Trace.Fingerprint(); got != refFP {
					t.Errorf("killAt=%d: resumed trace diverges from reference:\n%s",
						killAt, resumed.Trace.Diff(ref.Trace))
				}
				if resumed.Evaluations != ref.Evaluations {
					t.Errorf("killAt=%d: resumed Evaluations = %d, reference %d",
						killAt, resumed.Evaluations, ref.Evaluations)
				}
			}
		})
	}
}

// TestKillAndResumeParallelWorkers repeats the contract with a parallel
// evaluation pool: the kill lands at a nondeterministic point, but the
// resumed trace must still match the uninterrupted reference exactly.
func TestKillAndResumeParallelWorkers(t *testing.T) {
	model := workload.ResNet18()
	tech := explainable("ExplainableDSE-FixDF", eval.FixedDataflow)
	cfg := resumeConfig()
	cfg.Workers = 4

	ref := RunOne(context.Background(), cfg, tech, model, 0)
	if ref.Interrupted || ref.Err != "" {
		t.Fatalf("reference run failed: %+v", ref.Err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	kcfg := cfg
	kcfg.CheckpointDir = t.TempDir()
	kcfg.Faults = &eval.FaultPolicy{OnEvaluation: func(ord int) {
		if ord == 4 {
			cancel()
		}
	}}
	killed := RunOne(ctx, kcfg, tech, model, 0)
	cancel()
	if !killed.Interrupted {
		t.Fatal("run not marked Interrupted")
	}

	rcfg := cfg
	rcfg.CheckpointDir = kcfg.CheckpointDir
	rcfg.Resume = true
	resumed := RunOne(context.Background(), rcfg, tech, model, 0)
	if got, want := resumed.Trace.Fingerprint(), ref.Trace.Fingerprint(); got != want {
		t.Errorf("resumed trace diverges from reference:\n%s", resumed.Trace.Diff(ref.Trace))
	}
	if resumed.Evaluations != ref.Evaluations {
		t.Errorf("resumed Evaluations = %d, reference %d", resumed.Evaluations, ref.Evaluations)
	}
}

// TestResumeOfCompletedRunIsIdentical: resuming a journal of a run that
// finished cleanly re-produces the identical trace without recomputing any
// design.
func TestResumeOfCompletedRunIsIdentical(t *testing.T) {
	model := workload.ResNet18()
	tech := blackBox("SimulatedAnnealing-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Anneal{} })
	cfg := resumeConfig()
	cfg.CheckpointDir = t.TempDir()

	first := RunOne(context.Background(), cfg, tech, model, 0)
	if first.Interrupted || first.Resumed != 0 {
		t.Fatalf("first run: %+v", first)
	}

	cfg.Resume = true
	second := RunOne(context.Background(), cfg, tech, model, 0)
	if second.Resumed != first.Evaluations {
		t.Errorf("second run replayed %d evaluations, journal holds %d", second.Resumed, first.Evaluations)
	}
	if second.Trace.Fingerprint() != first.Trace.Fingerprint() {
		t.Errorf("replayed trace diverges:\n%s", second.Trace.Diff(first.Trace))
	}
}

// TestCampaignSurvivesInjectedPanics: a campaign whose evaluations panic at
// several indices still completes every run, reports the recoveries, and
// records the crashed designs as infeasible.
func TestCampaignSurvivesInjectedPanics(t *testing.T) {
	cfg := resumeConfig()
	cfg.Faults = &eval.FaultPolicy{PanicAt: []int{0, 2, 5}}
	techs := []Technique{
		explainable("ExplainableDSE-FixDF", eval.FixedDataflow),
		blackBox("SimulatedAnnealing-FixDF", eval.FixedDataflow, func() search.Optimizer { return opt.Anneal{} }),
	}
	c := RunCampaign(context.Background(), cfg, techs, cfg.Models, 0)
	if len(c.Runs) != 2 {
		t.Fatalf("campaign runs = %d", len(c.Runs))
	}
	for _, r := range c.Runs {
		if r.Err != "" {
			t.Errorf("%s: run crashed despite containment: %s", r.Technique, r.Err)
		}
		if r.Stats.PanicsRecovered == 0 {
			t.Errorf("%s: no recovered panics reported", r.Technique)
		}
		errored := 0
		for _, s := range r.Trace.Steps {
			if s.Costs.Err != "" && strings.Contains(s.Costs.Err, "panic") {
				errored++
			}
		}
		if errored == 0 {
			t.Errorf("%s: no panicked design recorded in the trace", r.Technique)
		}
	}
}

// TestInterruptedCampaignSkipsRemainingRuns: cancelling the campaign context
// marks in-progress and unstarted runs Interrupted but still returns one Run
// per roster entry.
func TestInterruptedCampaignSkipsRemainingRuns(t *testing.T) {
	cfg := resumeConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := RunCampaign(ctx, cfg, resumeTechniques()[:2], cfg.Models, 0)
	if len(c.Runs) != 2 {
		t.Fatalf("campaign runs = %d", len(c.Runs))
	}
	for _, r := range c.Runs {
		if !r.Interrupted {
			t.Errorf("%s: run not marked Interrupted under a cancelled context", r.Technique)
		}
	}
}

// interruptedAt runs an experiment under a context it cancels at the first
// unique evaluation for which stop returns true.
func interruptedAt[T any](cfg Config, run func(context.Context, Config) T, stop func(ord int) bool) T {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Faults = &eval.FaultPolicy{OnEvaluation: func(ord int) {
		if stop(ord) {
			cancel()
		}
	}}
	return run(ctx, cfg)
}

// nthRun stops at the first evaluation of an experiment's n-th run (every
// run's evaluator numbers its unique evaluations from 0); firstNew stops at
// the first evaluation a resumed experiment's journals cannot answer.
func nthRun(n int) func(int) bool {
	starts := 0
	return func(ord int) bool {
		if ord == 0 {
			starts++
		}
		return starts == n
	}
}

func firstNew(int) bool { return true }

// TestInterruptedResumeKeepsReplayedResults interrupts checkpointed
// experiments and resumes them, interrupted again. A replayed design's
// result is a Deferred payload that a report may resolve after the
// interrupt, so it must resolve to the design's result, not a cancelled
// one. Killed in fig14's run 3 twice over, the rows of the two fully
// replayed runs must equal an uninterrupted fig14's. Killed in run 1 twice
// over, the replayed partial run must equal the first, unreplayed
// invocation's: fig14's best design, and joint's best and per-step
// mapping-evaluation total.
func TestInterruptedResumeKeepsReplayedResults(t *testing.T) {
	base := resumeConfig()
	// The smallest budget at which every fig14 run finds a feasible design
	// only after several acquisitions, so each best is a replayed one.
	base.CodesignBudget, base.MapTrials = 50, 120

	ref := RunFig14(context.Background(), base)
	cfg := base
	cfg.CheckpointDir = t.TempDir()
	interruptedAt(cfg, RunFig14, nthRun(3))
	cfg.Resume = true
	rows := interruptedAt(cfg, RunFig14, firstNew)
	for i := 0; i < 2; i++ {
		if !reflect.DeepEqual(rows[i], ref[i]) {
			t.Errorf("fig14 replayed run %d: row %+v, uninterrupted %+v", i+1, rows[i], ref[i])
		}
	}

	cfg = base
	cfg.CheckpointDir = t.TempDir()
	partial := interruptedAt(cfg, RunFig14, func(ord int) bool { return ord == 40 })
	cfg.Resume = true
	rows = interruptedAt(cfg, RunFig14, firstNew)
	if partial[0].DSEFPS == 0 {
		t.Fatal("fig14 run 1 found no feasible design before the interrupt; move the kill later")
	}
	if !reflect.DeepEqual(rows[0], partial[0]) {
		t.Errorf("fig14 replayed partial run 1: row %+v, before the resume %+v", rows[0], partial[0])
	}

	cfg = base
	cfg.CheckpointDir = t.TempDir()
	jpartial := interruptedAt(cfg, RunJointVsTwoStage, func(ord int) bool { return ord == 20 })
	cfg.Resume = true
	if got := interruptedAt(cfg, RunJointVsTwoStage, firstNew); got[0] != jpartial[0] || got[0].MapEvalTotal == 0 {
		t.Errorf("joint replayed partial run 1: %+v, before the resume %+v", got[0], jpartial[0])
	}
}
