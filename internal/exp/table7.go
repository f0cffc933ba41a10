package exp

import (
	"fmt"
	"math"
	"math/rand"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// Table7Row is the mapping-space size analysis of one representative layer
// (Table 7 of the paper). All counts are log10 orders of magnitude.
type Table7Row struct {
	Model, Layer string
	// A: tile sizings with arbitrary integer bounds.
	A float64
	// B: tile sizings restricted to valid factorizations.
	B float64
	// C: valid tilings w.r.t. a reference hardware configuration
	// (Monte-Carlo estimate).
	C float64
	// D: loop orderings at a memory level.
	D float64
	// E: orderings with unique/maximum data reuse.
	E float64
	// F, G, H: composed space sizes (full, factorization-constrained,
	// factorization-constrained + reuse-aware).
	F, G, H float64
}

// representativeLayer picks the layer with the largest factorization space.
func representativeLayer(m *workload.Model) workload.Layer {
	best := m.Layers[0]
	bestB := -1.0
	for _, l := range m.Layers {
		if b := layerSplitsLog10(l); b > bestB {
			bestB = b
			best = l
		}
	}
	return best
}

func layerSplitsLog10(l workload.Layer) float64 {
	dims := mapping.Dims(l)
	b := 0.0
	for _, d := range dims {
		b += math.Log10(mapping.NumSplits4(d))
	}
	return b
}

// RunTable7 computes the mapping-space analysis for every suite model.
func RunTable7(cfg Config) []Table7Row {
	space := arch.EdgeSpace()
	ref := referencePoint(space)
	design := space.MustDecode(ref)
	rng := rand.New(rand.NewSource(cfg.Seed))

	var rows []Table7Row
	for _, m := range cfg.Models {
		l := representativeLayer(m)
		dims := mapping.Dims(l)

		var row Table7Row
		row.Model, row.Layer = m.Name, l.Name

		// A: three arbitrary integer cut points per loop (any value in
		// [1, L] at each of the inner levels).
		for _, d := range dims {
			row.A += 3 * math.Log10(float64(d))
		}
		row.B = layerSplitsLog10(l)

		// C: Monte-Carlo fraction of valid-factor tilings that the
		// reference hardware accepts (buffers, PEs, NoC time-sharing).
		const samples = 4000
		valid := 0
		ctx := perf.NewContext(design, l)
		for i := 0; i < samples; i++ {
			mm := mapping.Random(dims, rng)
			if ctx.Evaluate(mm).Valid {
				valid++
			}
		}
		frac := float64(valid) / samples
		if frac == 0 {
			frac = 0.5 / samples // resolution floor
		}
		row.C = row.B + math.Log10(frac)

		// D, E: orderings per memory level; convolutions have 7 loops
		// (7! orderings, 15 unique-reuse), GEMMs 3 (3!, 3).
		if l.Kind == workload.Gemm {
			row.D = math.Log10(6)
			row.E = math.Log10(3)
		} else {
			row.D = math.Log10(5040)
			row.E = math.Log10(15)
		}
		row.F = row.A + 2*row.D
		row.G = row.B + 2*row.D
		row.H = row.B + row.E
		rows = append(rows, row)
	}
	return rows
}

// ReportTable7 renders the analysis as orders of magnitude.
func ReportTable7(cfg Config, rows []Table7Row) {
	w := cfg.out()
	fmt.Fprintf(w, "\n== Table7: mapping-space size analysis (orders of magnitude, O(10^x)) ==\n")
	tb := newTable("Model", "Layer", "A", "B", "C", "D", "E", "F=A*D^2", "G=B*D^2", "H=B*E")
	o := func(v float64) string { return fmt.Sprintf("10^%.0f", v) }
	for _, r := range rows {
		tb.add(r.Model, r.Layer, o(r.A), o(r.B), o(r.C), o(r.D), o(r.E), o(r.F), o(r.G), o(r.H))
	}
	tb.write(w)
}

// referencePoint returns the mid-range point of the space, used where an
// experiment needs a fixed plausible hardware configuration.
func referencePoint(s *arch.Space) arch.Point {
	pt := s.Initial()
	for i, p := range s.Params {
		pt[i] = len(p.Values) / 2
	}
	// Ample virtual unicast so the reference accepts spatial mappings.
	for op := 0; op < arch.NumOperands; op++ {
		pt[arch.PVirt0+op] = len(s.Params[arch.PVirt0+op].Values) - 1
	}
	return pt
}
