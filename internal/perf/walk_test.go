package perf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/mapping"
	"xdse/internal/workload"
)

// keyTwins returns d and designs that share its walk key (PEs, L1 and L2)
// but differ in bandwidth, NoC width and links, from starved to roomy.
func keyTwins(d arch.Design) []arch.Design {
	slowDRAM := d
	slowDRAM.OffchipMBps = 1024
	wideNoC := d
	wideNoC.NoCWidthBits = 256
	fewLinks := d
	for op := range fewLinks.PhysLinks {
		fewLinks.PhysLinks[op] = 2
		fewLinks.VirtLinks[op] = 8
	}
	mixed := d
	mixed.OffchipMBps, mixed.NoCWidthBits = 25600, 16
	mixed.PhysLinks[arch.OpW], mixed.VirtLinks[arch.OpI] = 1, 1
	return []arch.Design{d, slowDRAM, wideNoC, fewLinks, mixed}
}

// TestWalkReplayMatchesFreshWalk: over TestWarmEnumerationBitIdentical's
// grid, designs that share a walk key but differ in bandwidth, NoC width
// and links, searched in either order through one shared walk, return
// exactly the Result, all six fields, of a search on a fresh walk.
func TestWalkReplayMatchesFreshWalk(t *testing.T) {
	cfg := searchCfg(300)
	for _, l := range pruneTestLayers() {
		for i, d := range pruneTestDesigns() {
			twins := keyTwins(d)
			fresh := make([]mapping.Result, len(twins))
			for j, tw := range twins {
				fresh[j] = SearchPruned(nil, tw, l, cfg)
			}
			forward := []int{0, 1, 2, 3, 4}
			for _, order := range [][]int{forward, {4, 3, 2, 1, 0}} {
				w := NewWalk(l, d)
				for _, j := range order {
					if got := SearchPruned(w, twins[j], l, cfg); got != fresh[j] {
						t.Errorf("layer %s design %d twin %d (order %v): replay %+v, fresh walk %+v", l.Name, i, j, order, got, fresh[j])
					}
				}
			}
		}
	}
}

// TestWalkExtendsAcrossBudgets: a key searched first with a small budget and
// then with larger ones extends the bases and fills the small search
// recorded, and every search equals one on a fresh walk.
func TestWalkExtendsAcrossBudgets(t *testing.T) {
	for _, l := range pruneTestLayers() {
		for i, d := range pruneTestDesigns() {
			w := NewWalk(l, d)
			for _, maxN := range []int{20, 90, 300, 2000, 300} {
				got := SearchPruned(w, d, l, searchCfg(maxN))
				if want := SearchPruned(nil, d, l, searchCfg(maxN)); got != want {
					t.Errorf("layer %s design %d budget %d: replay %+v, fresh walk %+v", l.Name, i, maxN, got, want)
				}
			}
		}
	}
}

// TestWalkConcurrentSearches: goroutines searching designs of one key
// through one walk, each in its own order, extend and replay it at once
// and still return what a search on a fresh walk returns. Run it under
// -race: an extension that publishes fills before writing them fails it.
func TestWalkConcurrentSearches(t *testing.T) {
	for _, l := range pruneTestLayers() {
		twins := keyTwins(testDesign())
		budgets := []int{40, 300, 1200}
		want := make(map[[2]int]mapping.Result)
		for j, d := range twins {
			for b, maxN := range budgets {
				want[[2]int{j, b}] = SearchPruned(nil, d, l, searchCfg(maxN))
			}
		}
		w := NewWalk(l, testDesign())
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for range 12 {
					j, b := rng.Intn(len(twins)), rng.Intn(len(budgets))
					if got := SearchPruned(w, twins[j], l, searchCfg(budgets[b])); got != want[[2]int{j, b}] {
						errs[g] = fmt.Errorf("layer %s twin %d budget %d: %+v, fresh walk %+v", l.Name, j, budgets[b], got, want[[2]int{j, b}])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFillRecordExact: on every layer of the suite, the key-fixed state of
// random valid fills survives packing into a walk record bit for bit, so a
// replayed fill prices exactly as EvaluateFill does.
func TestFillRecordExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for _, mdl := range workload.Suite() {
		for _, l := range mdl.Layers {
			d := randDesign(rng)
			d.L1Bytes, d.L2KB = 1<<20, 1<<16 // let most random fills fit
			c := NewContext(d, l)
			if !c.narrow() {
				t.Fatalf("%s/%s: a suite layer is not narrow", mdl.Name, l.Name)
			}
			for range 40 {
				m := mapping.Random(mapping.Dims(l), rng)
				if _, _, ok := c.fits(&m); !ok {
					continue
				}
				var fs fillState
				c.keyFill(&m, &fs)
				r := pack(&fs)
				if got := r.unpack(); got != fs {
					t.Fatalf("%s/%s: %v packs to %+v, unpacks to %+v", mdl.Name, l.Name, m, fs, got)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d fills checked", checked)
	}
}

// TestWideLayerSearch: a layer with a tensor of 4 GiB or more is not narrow,
// so its search prices every fill from the factor matrix; it still answers
// exactly as the Tier-2 reference does.
func TestWideLayerSearch(t *testing.T) {
	l := workload.Layer{Kind: workload.Conv, Name: "wide", K: 4096, C: 64, Y: 1024, X: 1024, R: 3, S: 3, Stride: 1, Mult: 1}
	d := testDesign()
	ctx := NewContext(d, l)
	if ctx.narrow() {
		t.Fatal("the wide test layer is narrow")
	}
	slowCost := func(m *mapping.Mapping, orderings []mapping.Mapping, cycles []float64) {
		c := *m
		for i := range orderings {
			c.DRAMStationary, c.NoCStationary = orderings[i].DRAMStationary, orderings[i].NoCStationary
			if b := ctx.Evaluate(c); b.Valid {
				cycles[i] = b.Cycles
			} else {
				cycles[i] = math.Inf(1)
			}
		}
	}
	cfg := searchCfg(300)
	got := SearchPruned(NewWalk(l, d), d, l, cfg)
	want := mapping.EnumeratePruned(mapping.NewWalk[mapping.Mapping](l, d.PEs, d.L1Bytes, d.L2Bytes()), cfg,
		&mapping.CostPricer{Layer: l, Cost: slowCost, BaseValid: ctx.Valid, LB: ctx.CostLowerBound})
	if !got.Found || got != want {
		t.Fatalf("wide layer: %+v, Tier-2 reference %+v", got, want)
	}
}
