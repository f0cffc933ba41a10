package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultsGolden reruns, at the default budgets, the experiments whose
// reports in results/ are still current and compares each byte for byte, so
// a change to any layer under them (evaluator caches, record codecs, the
// cost model, the engine) cannot silently move the reproduction's numbers.
// fig11 also matches but takes several seconds; fig3, fig9, fig15 and
// table2 wait for results/ to be regenerated.
func TestResultsGolden(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		id, file string
		run      func(Config)
	}{
		{"table7", "table7.txt", func(cfg Config) { ReportTable7(cfg, RunTable7(cfg)) }},
		{"ablation", "ablation.txt", func(cfg Config) { ReportAblations(cfg, RunAblations(ctx, cfg)) }},
		{"joint", "joint.txt", func(cfg Config) { ReportJointVsTwoStage(cfg, RunJointVsTwoStage(ctx, cfg)) }},
		{"energy", "energy.txt", func(cfg Config) { ReportEnergyObjective(cfg, RunEnergyObjective(ctx, cfg)) }},
		{"multiworkload", "multi.txt", func(cfg Config) { ReportMultiWorkload(cfg, RunMultiWorkload(ctx, cfg)) }},
		{"fig14", "fig14.txt", func(cfg Config) { ReportFig14(cfg, RunFig14(ctx, cfg)) }},
		{"fig4", "fig4.txt", func(cfg Config) { ReportFig4(cfg, RunFig4(ctx, cfg)) }},
	} {
		t.Run(tc.id, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			cfg := Default()
			cfg.Out = &buf
			tc.run(cfg)
			if buf.String() == string(want) {
				return
			}
			got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(got) && i < len(wantLines); i++ {
				if got[i] != wantLines[i] {
					t.Fatalf("report differs from results/%s at line %d:\n got  %q\n want %q", tc.file, i+1, got[i], wantLines[i])
				}
			}
			t.Fatalf("report has %d lines, results/%s has %d", len(got), tc.file, len(wantLines))
		})
	}
}
