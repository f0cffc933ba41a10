package exp

import (
	"context"
	"fmt"

	"xdse/internal/eval"
	"xdse/internal/workload"
)

// EdgeRef holds the published reference numbers of a physical edge
// accelerator used in the §E case study (Fig. 14 / Table 4). The paper
// compares against Google's Coral Edge TPU (results scaled to the study's
// 16-bit precision, 1.4 W assumed power per its datasheet note) and the
// Eyeriss chip (65 nm, 12.25 mm^2, 278 mW). Die area for the Edge TPU is
// not published; a common estimate is embedded and flagged in the report.
type EdgeRef struct {
	Name    string
	AreaMM2 float64
	PowerW  float64
	// FPS maps model name -> published throughput (16-bit scaled).
	FPS map[string]float64
}

// EdgeTPURef returns the Coral Edge TPU reference numbers.
func EdgeTPURef() EdgeRef {
	return EdgeRef{
		Name:    "EdgeTPU",
		AreaMM2: 30, // estimated die area (not published)
		PowerW:  1.4,
		FPS: map[string]float64{
			"MobileNetV2":    200,
			"EfficientNetB0": 110,
			"ResNet50":       25,
			"VGG16":          10,
		},
	}
}

// EyerissRef returns the Eyeriss chip reference numbers.
func EyerissRef() EdgeRef {
	return EdgeRef{
		Name:    "Eyeriss",
		AreaMM2: 12.25,
		PowerW:  0.278,
		FPS: map[string]float64{
			"VGG16": 0.7,
		},
	}
}

// Fig14Row compares one model's DSE codesign against the references.
type Fig14Row struct {
	Model      string
	DSEFPS     float64
	DSEAreaMM2 float64
	DSEFPSJ    float64 // inferences per Joule
	Refs       map[string]EdgeRefPoint
}

// EdgeRefPoint is one reference accelerator's derived metrics for a model.
type EdgeRefPoint struct {
	FPS, FPSPerMM2, FPSPerJ float64
}

// RunFig14 runs Explainable-DSE codesign for the case-study CV models and
// derives throughput, area efficiency, and energy efficiency.
func RunFig14(ctx context.Context, cfg Config) []Fig14Row {
	models := []*workload.Model{
		workload.MobileNetV2(), workload.EfficientNetB0(),
		workload.ResNet50(), workload.VGG16(),
	}
	refs := []EdgeRef{EdgeTPURef(), EyerissRef()}

	c := RunCampaign(ctx, cfg, []Technique{explainable("ExplainableDSE-Codesign", eval.PrunedMappings)}, models, 0)
	var rows []Fig14Row
	for _, r := range c.Runs {
		row := Fig14Row{Model: r.Model, Refs: map[string]EdgeRefPoint{}}
		if best := r.Best(); best != nil {
			row.DSEFPS = 1000 / best.LatencyMs
			row.DSEAreaMM2 = best.AreaMM2
			if e := best.Models[0].EnergyMJ; e > 0 {
				row.DSEFPSJ = 1000 / e // inferences per Joule
			}
		}
		for _, ref := range refs {
			fps, ok := ref.FPS[r.Model]
			if !ok {
				continue
			}
			row.Refs[ref.Name] = EdgeRefPoint{
				FPS:       fps,
				FPSPerMM2: fps / ref.AreaMM2,
				FPSPerJ:   fps / ref.PowerW,
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ReportFig14 renders the case-study comparison.
func ReportFig14(cfg Config, rows []Fig14Row) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Fig14: DSE codesigns vs Edge TPU / Eyeriss (references; EdgeTPU area estimated) ==\n")
	tb := newTable("Model", "DSE FPS", "DSE FPS/mm2", "DSE FPS/J",
		"EdgeTPU FPS", "EdgeTPU FPS/mm2", "EdgeTPU FPS/J",
		"Eyeriss FPS", "Eyeriss FPS/mm2", "Eyeriss FPS/J")
	f := func(v float64) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, r := range rows {
		tpu := r.Refs["EdgeTPU"]
		eye := r.Refs["Eyeriss"]
		area := 0.0
		if r.DSEAreaMM2 > 0 {
			area = r.DSEFPS / r.DSEAreaMM2
		}
		tb.add(r.Model, f(r.DSEFPS), f(area), f(r.DSEFPSJ),
			f(tpu.FPS), f(tpu.FPSPerMM2), f(tpu.FPSPerJ),
			f(eye.FPS), f(eye.FPSPerMM2), f(eye.FPSPerJ))
	}
	tb.write(w)
}
