package eval

import (
	"testing"

	"xdse/internal/arch"
	"xdse/internal/workload"
)

// distinctShapes counts the distinct shape keys among the layers of models.
func distinctShapes(models ...*workload.Model) int {
	seen := make(map[string]bool)
	for _, m := range models {
		for _, l := range m.Layers {
			seen[l.ShapeKey()] = true
		}
	}
	return len(seen)
}

// TestSlotsSearchEachShapeOnce: on Transformer (22 layers, 7 shapes) a design
// runs one search per distinct shape at any worker count, and every layer —
// its slot's first or a copy of it — carries the mapping, breakdown and
// trials that a fresh evaluator over that layer alone finds.
func TestSlotsSearchEachShapeOnce(t *testing.T) {
	mdl := workload.Transformer()
	shapes := distinctShapes(mdl)
	if len(mdl.Layers) != 22 || shapes != 7 {
		t.Fatalf("Transformer has %d layers of %d shapes, want 22 of 7", len(mdl.Layers), shapes)
	}
	for _, workers := range []int{1, 4} {
		cfg := cacheTestConfig(arch.EdgeSpace(), PrunedMappings)
		cfg.Models = []*workload.Model{mdl}
		cfg.Workers = workers
		e := New(cfg)
		pts := campaignPoints(cfg.Space, 2)
		for i, pt := range pts {
			r := e.Evaluate(pt)
			if r.Err != "" {
				t.Fatalf("workers %d: %s", workers, r.Err)
			}
			if got := e.Stats().LayerMisses; got != (i+1)*shapes {
				t.Fatalf("workers %d: %d searches after %d designs, want %d", workers, got, i+1, (i+1)*shapes)
			}
			for li, l := range mdl.Layers {
				one := cfg
				one.Models = []*workload.Model{{Name: l.Name, Layers: []workload.Layer{l}, MaxLatencyMs: mdl.MaxLatencyMs}}
				want := New(one).Evaluate(pt).Models[0].Layers[0]
				got := r.Models[0].Layers[li]
				if got.Layer != l || got.Mapping != want.Mapping || got.Perf != want.Perf || got.MapTrials != want.MapTrials {
					t.Fatalf("workers %d, design %d, layer %d (%s): the slot's outcome differs from a fresh search of the layer",
						workers, i, li, l.Name)
				}
			}
		}
		if hits := e.Stats().LayerHits; hits != 0 {
			t.Errorf("workers %d: %d record-map hits over distinct designs, want 0", workers, hits)
		}
	}
}

// TestSlotsShareAcrossModels: on the §4.4 shared accelerator (ResNet18 and
// ResNet50 on one design), a shape both models contain is searched once per
// design, and both models' layers of that shape carry its outcome.
func TestSlotsShareAcrossModels(t *testing.T) {
	r18, r50 := workload.ResNet18(), workload.ResNet50()
	e := newEval(PrunedMappings, r18, r50)
	common := distinctShapes(r18) + distinctShapes(r50) - distinctShapes(r18, r50)
	if common != 5 {
		t.Fatalf("ResNet18 and ResNet50 share %d shapes, want 5", common)
	}
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	if got, want := e.Stats().LayerMisses, distinctShapes(r18, r50); got != want {
		t.Fatalf("%d searches, want one per distinct shape of both models (%d)", got, want)
	}
	byShape := make(map[string]LayerEval)
	for _, le := range r.Models[0].Layers {
		byShape[le.Layer.ShapeKey()] = le
	}
	shared := 0
	for _, le := range r.Models[1].Layers {
		if first, ok := byShape[le.Layer.ShapeKey()]; ok {
			shared++
			if le.Mapping != first.Mapping || le.Perf != first.Perf || le.MapTrials != first.MapTrials {
				t.Errorf("%s: ResNet50's layer differs from ResNet18's layer of the same shape", le.Layer.Name)
			}
		}
	}
	if shared != common {
		t.Errorf("%d ResNet50 layers share a ResNet18 shape, want %d", shared, common)
	}
}

// TestSlotsRandomModeKeepIndex: the random search seeds its rng from the
// layer index, so in RandomMappings mode one shape at two layer indices is
// two slots with two searches, keyed by the two resolved seeds; in the other
// modes it is one slot.
func TestSlotsRandomModeKeepIndex(t *testing.T) {
	l := workload.ResNet18().Layers[1]
	twice := &workload.Model{Name: "twice", Layers: []workload.Layer{l, l}, MaxLatencyMs: 100}
	twice.Layers[1].Name += "-again"
	for _, tc := range []struct {
		mode  MapperMode
		slots int
	}{{FixedDataflow, 1}, {RandomMappings, 2}, {PrunedMappings, 1}} {
		e := newEval(tc.mode, twice)
		r := e.Evaluate(compatiblePoint(e.Config().Space))
		if len(e.slots) != tc.slots || e.Stats().LayerMisses != tc.slots {
			t.Errorf("%v: %d slots and %d searches, want %d", tc.mode, len(e.slots), e.Stats().LayerMisses, tc.slots)
		}
		recs := recordsOf(t, e, r)
		if len(recs) != tc.slots {
			t.Fatalf("%v: %d records exported, want %d", tc.mode, len(recs), tc.slots)
		}
		if tc.mode != RandomMappings {
			continue
		}
		for i, rec := range recs {
			if want := e.Config().Seed*1_000_003 + int64(i); rec.Key.Salt != want {
				t.Errorf("random mode: record %d salted %d, want %d", i, rec.Key.Salt, want)
			}
		}
	}
}

// TestWalkMemoCounters: every pruned search asks the walk memo once. A
// design that differs from an evaluated one only in a link count searches
// every layer anew (its sub-key differs) but replays the walks of the
// first: one miss per layer shape, then one hit per shape.
func TestWalkMemoCounters(t *testing.T) {
	e := newEval(PrunedMappings)
	pt := compatiblePoint(e.Config().Space)
	e.Evaluate(pt)
	twin := pt.Clone()
	twin[arch.PVirt0]++
	e.Evaluate(twin)
	hits := e.Metrics().Counter("eval_walk_memo_hits_total").Value()
	misses := e.Metrics().Counter("eval_walk_memo_misses_total").Value()
	shapes := len(workload.ResNet18().Layers)
	if searches := e.Stats().LayerMisses; int(hits+misses) != searches || searches != 2*shapes {
		t.Fatalf("%d hits and %d misses for %d searches, want %d searches", hits, misses, searches, 2*shapes)
	}
	if int(misses) != shapes || int(hits) != shapes {
		t.Errorf("%d misses and %d hits, want %d of each", misses, hits, shapes)
	}
}
