package mapping

import "testing"

// TestWalkSharesBandEdgeBases: the utilization bands are closed at both
// ends, so at 256 PEs a base occupying exactly 64, 128 or 192 PEs is visited
// in two bands. The walk keeps one record of it, linked into both bands:
// visits are counted per record, so a second record of an edge base would
// show as two records visited once. Walking every band to the end, the
// bench layer visits 241 bases, 39 of them twice.
func TestWalkSharesBandEdgeBases(t *testing.T) {
	l := benchLayer()
	f, _ := benchCost(l)
	w := benchWalk(l)
	EnumeratePruned(w, GenConfig{MinN: 10, MaxN: 1 << 20}, &CostPricer{Layer: l, Cost: perCandidate(f)})
	visits := map[*walkBase[Mapping]]int{}
	n := 0
	for i := range utilBands {
		for b := w.next(i, nil); b != nil; b = w.next(i, b) {
			visits[b]++
			n++
		}
	}
	shared := 0
	for b, v := range visits {
		edge := b.PEs == 64 || b.PEs == 128 || b.PEs == 192
		if (v == 2) != edge || v > 2 {
			t.Errorf("base %v (%d PEs) is linked into %d bands", b.Spatial, b.PEs, v)
		}
		if v == 2 {
			shared++
		}
	}
	if n != 241 || shared != 39 {
		t.Errorf("%d base visits, %d records visited twice; want 241 and 39", n, shared)
	}
}

// TestFillMappingRebuildsEveryFill: the code a walk records for a fill
// rebuilds exactly the fill it walked, which is how a search returns its
// winner without walking again.
func TestFillMappingRebuildsEveryFill(t *testing.T) {
	for _, buf := range [][2]int{{512, 512 << 10}, {32, 4 << 10}, {0, 0}} {
		l := benchLayer()
		f, _ := benchCost(l)
		w := NewWalk[Mapping](l, 256, buf[0], buf[1])
		EnumeratePruned(w, GenConfig{MinN: 10, MaxN: 1 << 20}, &CostPricer{Layer: l, Cost: perCandidate(f)})
		fills := 0
		for i := range utilBands {
			for b := w.next(i, nil); b != nil; b = w.next(i, b) {
				for _, r := range b.recorded() {
					if got := w.fillMapping(&b.Base, b.taps, r.code); got != r.st {
						t.Fatalf("buffers %v: code %#x rebuilds %v, walked %v", buf, r.code, got, r.st)
					}
					fills++
				}
			}
		}
		if fills == 0 {
			t.Fatalf("buffers %v: no fill recorded", buf)
		}
	}
}
