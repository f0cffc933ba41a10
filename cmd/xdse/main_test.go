package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xdse/internal/arch"
	"xdse/internal/eval"
	"xdse/internal/exp"
	"xdse/internal/obs"
	"xdse/internal/workload"
)

func TestParseDesignDefaultsToMidRange(t *testing.T) {
	space := arch.EdgeSpace()
	pt, err := parseDesign(space, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range space.Params {
		if pt[i] != len(p.Values)/2 {
			t.Fatalf("%s default index = %d", p.Name, pt[i])
		}
	}
}

func TestParseDesignOverrides(t *testing.T) {
	space := arch.EdgeSpace()
	pt, err := parseDesign(space, "PEs=512, L2_KB=1000")
	if err != nil {
		t.Fatal(err)
	}
	d := space.MustDecode(pt)
	if d.PEs != 512 {
		t.Fatalf("PEs = %d", d.PEs)
	}
	if d.L2KB != 1024 { // rounded up to the nearest legal value
		t.Fatalf("L2 = %d", d.L2KB)
	}
}

func TestParseDesignErrors(t *testing.T) {
	space := arch.EdgeSpace()
	for name, spec := range map[string]string{
		"unknown param": "bogus=3",
		"no equals":     "PEs",
		"bad value":     "PEs=lots",
	} {
		if _, err := parseDesign(space, spec); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestRunExploreRejectsBadMode(t *testing.T) {
	cfg := testConfig()
	if err := runExplore(context.Background(), cfg, "", "warp", true, io.Discard); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Fatalf("bad mode accepted: %v", err)
	}
}

func TestRunExploreRejectsMissingSpec(t *testing.T) {
	cfg := testConfig()
	if err := runExplore(context.Background(), cfg, "/nonexistent/spec", "fixdf", true, io.Discard); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestExploreLogGolden pins the explanation log of `xdse -explore` byte for
// byte against logs recorded before the engine reused an incumbent's
// analysis across stalled attempts and rendered its trees without fmt. The
// ResNet18 runs end in stalled attempts, fixdf walks the incompatible-mapping
// path, and the 11-model codesign run walks the constraint path.
func TestExploreLogGolden(t *testing.T) {
	for _, tc := range []struct {
		golden, mode string
		models       []*workload.Model
	}{
		{"explore-codesign-ResNet18.log", "codesign", []*workload.Model{workload.ResNet18()}},
		{"explore-fixdf-ResNet18.log", "fixdf", []*workload.Model{workload.ResNet18()}},
		{"explore-codesign-suite.log", "codesign", workload.Suite()},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			cfg := exp.Default()
			cfg.Models = tc.models
			var got bytes.Buffer
			if err := runExplore(context.Background(), cfg, "", tc.mode, false, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("log differs from testdata/%s at line %d:\n got %q\nwant %q", tc.golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("log has %d lines, testdata/%s has %d", len(gl), tc.golden, len(wl))
			}
		})
	}
}

// TestExperimentConfigSeparatesOutputs checks that under -exp all each
// experiment writes its CSVs and journals to its own subdirectory while
// sharing everything else, the content-addressed cache included.
func TestExperimentConfigSeparatesOutputs(t *testing.T) {
	cfg := testConfig()
	cfg.CSVDir, cfg.CheckpointDir, cfg.CacheDir, cfg.Resume = "csv", "ckpt", "cache", true
	for _, name := range allExperiments {
		got := experimentConfig(cfg, name)
		if got.CSVDir != filepath.Join("csv", name) || got.CheckpointDir != filepath.Join("ckpt", name) {
			t.Errorf("%s: CSVDir %q, CheckpointDir %q", name, got.CSVDir, got.CheckpointDir)
		}
		if got.CacheDir != cfg.CacheDir || got.Resume != cfg.Resume || got.Budget != cfg.Budget {
			t.Errorf("%s: shared settings changed: %+v", name, got)
		}
	}
	if got := experimentConfig(testConfig(), "fig3"); got.CSVDir != "" || got.CheckpointDir != "" || got.Trace != nil {
		t.Errorf("unset outputs became CSVDir %q, CheckpointDir %q, Trace %v", got.CSVDir, got.CheckpointDir, got.Trace)
	}
	// Runs of different experiments share labels, so one trace file keeps
	// them apart by the experiment's prefix on run labels and trace IDs.
	var sink obs.CollectSink
	cfg = testConfig()
	cfg.Trace = &sink
	traced := experimentConfig(cfg, "fig3").Trace
	traced.Emit(obs.Event{Kind: obs.KindSpan, Run: "GA_ResNet18", Trace: "GA_ResNet18", Span: "1"})
	traced.Emit(obs.Event{Kind: obs.KindNote})
	got := sink.Events()
	if len(got) != 2 || got[0].Run != "fig3/GA_ResNet18" || got[0].Trace != "fig3/GA_ResNet18" || got[0].Span != "1" {
		t.Fatalf("traced event = %+v, want run and trace prefixed with fig3/", got)
	}
	if got[1].Run != "" || got[1].Trace != "" {
		t.Errorf("empty run label or trace ID gained a prefix: %+v", got[1])
	}
}

// testConfig builds a tiny config for the CLI helper tests.
func testConfig() exp.Config {
	cfg := exp.Default()
	cfg.Budget = 5
	cfg.Models = []*workload.Model{workload.ResNet18()}
	return cfg
}

// TestServeRetryFlagsCapBackoff: however many attempts -retries allows, no
// backoff of the policy the serve flags build exceeds eval.DefaultRetry's
// cap. Uncapped, -retries 20 would wait 10ms·2^18 (about 44 minutes) before
// its last attempt.
func TestServeRetryFlagsCapBackoff(t *testing.T) {
	limit := eval.DefaultRetry().BackoffCap
	if limit <= 0 {
		t.Fatalf("eval.DefaultRetry caps nothing (BackoffCap %v)", limit)
	}
	p := flagRetry(20, 10*time.Millisecond)
	if p.MaxAttempts != 20 || p.Backoff != 10*time.Millisecond {
		t.Fatalf("flagRetry(20, 10ms) = %+v, want the flags' attempts and backoff", p)
	}
	for r := 1; r < p.MaxAttempts; r++ {
		if d := p.DelayBefore(r); d > limit {
			t.Fatalf("retry %d waits %v, over the %v cap", r, d, limit)
		}
	}
	if d := p.DelayBefore(p.MaxAttempts - 1); d != limit {
		t.Fatalf("last retry waits %v, want the %v cap", d, limit)
	}
}
