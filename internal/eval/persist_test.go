package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xdse/internal/evalcache"
	"xdse/internal/workload"
)

// newOver returns an evaluator over a store freshly opened in dir. Every call
// opens the directory anew, so two calls are the process-restart shape: two
// evaluators sharing only the directory.
func newOver(t *testing.T, cfg Config, dir string) *Evaluator {
	t.Helper()
	store, err := evalcache.Open(dir, evalcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PersistCache = store
	return New(cfg)
}

// TestPersistCacheBitIdenticalAcrossRestart is the tentpole acceptance
// criterion: a fresh evaluator over a populated cache directory — the
// process-restart shape — must answer every repeated layer search from disk
// with results bit-identical to the run that computed them, in all three
// mapper modes.
func TestPersistCacheBitIdenticalAcrossRestart(t *testing.T) {
	s := spaceWithDummyParam(3)
	pts := campaignPoints(s, 12)
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := cacheTestConfig(s, mode)

			first := newOver(t, cfg, dir)
			var want []*Result
			for _, pt := range pts {
				want = append(want, first.Evaluate(pt))
			}
			if st := first.Stats(); st.PersistWrites == 0 {
				t.Fatalf("cold run persisted nothing (stats %+v)", st)
			}

			// "Restart": a brand-new evaluator with empty in-memory caches,
			// sharing only the directory.
			second := newOver(t, cfg, dir)
			for i, pt := range pts {
				got := second.Evaluate(pt)
				if err := resultsEquivalent(want[i], got); err != nil {
					t.Fatalf("point %v not bit-identical after restart: %v", pt.Key(), err)
				}
			}
			st := second.Stats()
			if st.PersistHits == 0 {
				t.Fatal("warm restart produced no persistent-cache hits")
			}
			// The identical campaign was fully persisted, so no layer search
			// may run again — far above the >=50% acceptance floor.
			if st.LayerMisses != 0 {
				t.Errorf("warm restart re-ran %d layer searches", st.LayerMisses)
			}
			if st.PersistHits < st.PersistMisses {
				t.Errorf("persistent store answered %d of %d lookups, want >= half",
					st.PersistHits, st.PersistHits+st.PersistMisses)
			}
		})
	}
}

// TestParentFormatRecordAnswers opens a store holding lines written before
// records dropped the derived breakdown: internal/evalcache's
// testdata/parent-records.jsonl, ResNet18's second layer on compatiblePoint's
// design, one line per mapper mode, each still carrying "perf" and the
// search counters. An evaluator over that store must answer the layer
// without a search, with a Result bit-identical to a fresh evaluator's: the
// line's mapping alone derives the breakdown a fresh search reports.
func TestParentFormatRecordAnswers(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "evalcache", "testdata", "parent-records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	model := &workload.Model{Name: "one", Layers: []workload.Layer{workload.ResNet18().Layers[1]}, MaxLatencyMs: 100}
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "evalcache.jsonl"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := newEval(mode, model)
			cfg := fresh.Config()
			stored := newOver(t, cfg, dir)
			pt := compatiblePoint(cfg.Space)
			if err := resultsEquivalent(fresh.Evaluate(pt), stored.Evaluate(pt)); err != nil {
				t.Fatalf("parent-format record changed the result: %v", err)
			}
			st := stored.Stats()
			if st.LayerMisses != 0 || st.PersistHits != 1 {
				t.Errorf("%d layer searches, %d persist hits; want 0, 1", st.LayerMisses, st.PersistHits)
			}
			if st.PersistCorrupt != 0 || st.PersistStale != 0 {
				t.Errorf("parent-format lines read as %d corrupt, %d stale; want 0, 0", st.PersistCorrupt, st.PersistStale)
			}
		})
	}
}

// TestPersistCacheCorruptionDegradesToMiss corrupts and truncates the cache
// file between runs and checks the durability contract: damage may cost
// recomputes, never wrongness.
func TestPersistCacheCorruptionDegradesToMiss(t *testing.T) {
	s := spaceWithDummyParam(3)
	pts := campaignPoints(s, 9)
	cfg := cacheTestConfig(s, PrunedMappings)
	// A fresh evaluator per design is the cold reference (see
	// TestLayerCacheBitIdentical).
	var want []*Result
	for _, pt := range pts {
		want = append(want, New(cfg).Evaluate(pt))
	}

	for _, damage := range []struct {
		name string
		do   func(t *testing.T, path string)
	}{
		{"corrupt-byte", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xFF
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate-tail", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			first := newOver(t, cfg, dir)
			for _, pt := range pts {
				first.Evaluate(pt)
			}
			damage.do(t, filepath.Join(dir, "evalcache.jsonl"))

			second := newOver(t, cfg, dir)
			for i, pt := range pts {
				if err := resultsEquivalent(want[i], second.Evaluate(pt)); err != nil {
					t.Fatalf("damaged cache changed results at %v: %v", pt.Key(), err)
				}
			}
			st := second.Stats()
			if st.PersistCorrupt == 0 {
				t.Error("damage went uncounted (PersistCorrupt = 0)")
			}
		})
	}
}

// TestPersistCacheSeedIsolation guards the random-mode key derivation: two
// runs differing only in Config.Seed draw different mappings, so they must
// not share persisted entries.
func TestPersistCacheSeedIsolation(t *testing.T) {
	s := spaceWithDummyParam(2)
	pts := campaignPoints(s, 6)
	dir := t.TempDir()

	seedCfg := func(seed int64) Config {
		cfg := cacheTestConfig(s, RandomMappings)
		cfg.Seed = seed
		return cfg
	}
	// Populate the store under seed 1.
	first := newOver(t, seedCfg(1), dir)
	for _, pt := range pts {
		first.Evaluate(pt)
	}
	// A seed-2 run over the same directory must reproduce the uncached
	// seed-2 results, not replay seed-1 entries. Its twins hit its own
	// writes, so it must hit the store exactly as often as a seed-2 run over
	// an empty store.
	uncached := New(seedCfg(2))
	shared := newOver(t, seedCfg(2), dir)
	empty := newOver(t, seedCfg(2), t.TempDir())
	for _, pt := range pts {
		if err := resultsEquivalent(uncached.Evaluate(pt), shared.Evaluate(pt)); err != nil {
			t.Fatalf("seed-2 run contaminated by seed-1 cache at %v: %v", pt.Key(), err)
		}
		empty.Evaluate(pt)
	}
	if got, want := shared.Stats().PersistHits, empty.Stats().PersistHits; got != want {
		t.Errorf("seed-2 run hit the seed-1 store %d times, want %d as over an empty store", got, want)
	}
}

// TestPersistCacheConcurrentEvaluators drives two evaluators with separate
// stores over one directory concurrently — run under -race in CI. Results
// must match a serial evaluator's exactly.
func TestPersistCacheConcurrentEvaluators(t *testing.T) {
	s := spaceWithDummyParam(2)
	pts := campaignPoints(s, 8)
	serial := New(cacheTestConfig(s, PrunedMappings))
	var want []*Result
	for _, pt := range pts {
		want = append(want, serial.Evaluate(pt))
	}

	dir := t.TempDir()
	cfg := cacheTestConfig(s, PrunedMappings)
	evs := []*Evaluator{newOver(t, cfg, dir), newOver(t, cfg, dir)}
	errs := make([]error, len(evs))
	var wg sync.WaitGroup
	for gi, e := range evs {
		wg.Add(1)
		go func(gi int, e *Evaluator) {
			defer wg.Done()
			for i, pt := range pts {
				if err := resultsEquivalent(want[i], e.Evaluate(pt)); err != nil {
					errs[gi] = fmt.Errorf("evaluator %d, point %v: %w", gi, pt.Key(), err)
					return
				}
			}
		}(gi, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCachesBounded is the memory-leak regression test for the evaluator's
// two bounded maps: the design memo stays within its cap, and the install
// map (the record map of installed fleet records) within 8x that cap,
// however many distinct keys stream through a long-running evaluator. Each
// keeps the newest keys, and counts every drop in its Stats field. The caps
// are lowered from DefaultCacheCap to 1 and 8 so a few keys reach them.
func TestCachesBounded(t *testing.T) {
	for _, tc := range []struct {
		name    string
		limit   int
		fill    func(e *Evaluator, i int)
		has     func(e *Evaluator, i int) bool
		size    func(e *Evaluator) int
		evicted func(st Stats) int
	}{
		{
			name:    "design memo",
			limit:   1,
			fill:    func(e *Evaluator, i int) { e.cache.put(fmt.Sprint(i), &Result{}) },
			has:     func(e *Evaluator, i int) bool { _, ok := e.cache.get(fmt.Sprint(i)); return ok },
			size:    func(e *Evaluator) int { return len(e.cache.m) },
			evicted: func(st Stats) int { return st.Evictions },
		},
		{
			name:  "install map",
			limit: 8,
			fill: func(e *Evaluator, i int) {
				e.records.put(evalcache.Key{Shape: "shape", Sub: fmt.Sprint(i)}, &evalcache.Entry{})
			},
			has: func(e *Evaluator, i int) bool {
				_, ok := e.records.get(evalcache.Key{Shape: "shape", Sub: fmt.Sprint(i)})
				return ok
			},
			size:    func(e *Evaluator) int { return len(e.records.m) },
			evicted: func(st Stats) int { return st.LayerEvictions },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(cacheTestConfig(spaceWithDummyParam(2), PrunedMappings))
			e.cache.limit, e.records.limit = 1, 8
			const n = 50
			e.mu.Lock()
			for i := 0; i < n; i++ {
				tc.fill(e, i)
			}
			size := tc.size(e)
			oldestKept, newestDropped := tc.has(e, n-tc.limit), tc.has(e, n-tc.limit-1)
			e.mu.Unlock()
			if size != tc.limit {
				t.Errorf("holds %d keys, want the bound %d", size, tc.limit)
			}
			if !oldestKept || newestDropped {
				t.Errorf("kept key %d = %v and key %d = %v; want only the newest %d keys",
					n-tc.limit, oldestKept, n-tc.limit-1, newestDropped, tc.limit)
			}
			if got := tc.evicted(e.Stats()); got != n-tc.limit {
				t.Errorf("eviction counter = %d, want %d", got, n-tc.limit)
			}
		})
	}
}

// TestEnumStringsOutOfRange: mode/objective names must render, not panic, for
// values outside the defined range (e.g. a corrupted job spec).
func TestEnumStringsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{MapperMode(99).String(), "unknown(99)"},
		{MapperMode(-1).String(), "unknown(-1)"},
		{Objective(42).String(), "unknown(42)"},
		{MapperMode(2).String(), "pruned-mappings"},
	} {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
	if s := MapperMode(7).String(); !strings.Contains(s, "7") {
		t.Errorf("out-of-range String() %q should embed the value", s)
	}
}
