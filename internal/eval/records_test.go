package eval

import (
	"sync"
	"testing"

	"xdse/internal/evalcache"
)

func TestParseMapperMode(t *testing.T) {
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		got, ok := ParseMapperMode(mode.String())
		if !ok || got != mode {
			t.Fatalf("ParseMapperMode(%q) = %v, %v", mode.String(), got, ok)
		}
	}
	if _, ok := ParseMapperMode("no-such-mode"); ok {
		t.Fatal("ParseMapperMode accepted an unknown name")
	}
}

func TestMemoized(t *testing.T) {
	s := spaceWithDummyParam(3)
	ev := New(cacheTestConfig(s, PrunedMappings))
	pt := campaignPoints(s, 1)[0]
	if ev.Memoized(pt) {
		t.Fatal("fresh evaluator claims a memoized point")
	}
	ev.Evaluate(pt)
	if !ev.Memoized(pt) {
		t.Fatal("evaluated point not memoized")
	}
}

// TestRecordsRoundTripBitIdentical is the fleet transport contract: records
// exported from the evaluator that computed a point, installed into a
// completely fresh evaluator, must make that evaluator's own evaluation
// bit-identical without re-running any layer search — in all three mapper
// modes, across the wire codec.
func TestRecordsRoundTripBitIdentical(t *testing.T) {
	s := spaceWithDummyParam(3)
	pts := campaignPoints(s, 6)
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := cacheTestConfig(s, mode)
			worker := New(cfg)
			var want []*Result
			var wire []string
			for _, pt := range pts {
				want = append(want, worker.Evaluate(pt))
				for _, rec := range worker.RecordsFor(pt) {
					data, err := evalcache.EncodeRecord(rec, "v-test")
					if err != nil {
						t.Fatal(err)
					}
					wire = append(wire, string(data))
				}
			}
			if len(wire) == 0 {
				t.Fatal("worker exported no records")
			}

			coord := New(cfg)
			var recs []evalcache.Record
			for _, line := range wire {
				rec, ver, err := evalcache.DecodeRecord(line)
				if err != nil || ver != "v-test" {
					t.Fatalf("decode %q: %v (version %q)", line, err, ver)
				}
				recs = append(recs, rec)
			}
			installed := coord.InstallRecords(recs)
			if installed == 0 {
				t.Fatal("coordinator installed no records")
			}
			// Duplicate installs must be no-ops, not double merges.
			if again := coord.InstallRecords(recs); again != 0 {
				t.Fatalf("re-install installed %d records, want 0", again)
			}
			for i, pt := range pts {
				got := coord.Evaluate(pt)
				if err := resultsEquivalent(want[i], got); err != nil {
					t.Fatalf("point %v differs after record install: %v", pt.Key(), err)
				}
			}
			if st := coord.Stats(); st.LayerMisses != 0 {
				t.Errorf("prefilled evaluator re-ran %d layer searches", st.LayerMisses)
			}
		})
	}
}

// TestInstalledRecordsConcurrentFirstUse races goroutines over designs
// whose layers all answer from installed records (run under -race in CI).
// Twin designs share sub-keys, so several goroutines may derive from the
// same installed record at once; each must still see the breakdown a local
// search would have produced.
func TestInstalledRecordsConcurrentFirstUse(t *testing.T) {
	s := spaceWithDummyParam(3)
	pts := campaignPoints(s, 9)
	cfg := cacheTestConfig(s, PrunedMappings)
	worker := New(cfg)
	var want []*Result
	var recs []evalcache.Record
	for _, pt := range pts {
		want = append(want, worker.Evaluate(pt))
		recs = append(recs, worker.RecordsFor(pt)...)
	}
	coord := New(cfg)
	coord.InstallRecords(recs)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range pts {
				j := (g + i) % len(pts)
				if err := resultsEquivalent(want[j], coord.Evaluate(pts[j])); err != nil {
					t.Errorf("point %v: %v", pts[j].Key(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := coord.Stats(); st.LayerMisses != 0 {
		t.Errorf("installed records left %d layer searches", st.LayerMisses)
	}
}

// TestPrefill is the coordinator's local-first contract: a fresh evaluator
// over a persistent store reports a point answerable only once every layer
// record RecordsFor exports is in the store, and then evaluates it
// bit-identically without running a single layer search.
func TestPrefill(t *testing.T) {
	s := spaceWithDummyParam(3)
	pt := campaignPoints(s, 1)[0]
	cfg := cacheTestConfig(s, PrunedMappings)
	dir := t.TempDir()

	worker := New(cacheTestConfig(s, PrunedMappings))
	want := worker.Evaluate(pt)
	recs := worker.RecordsFor(pt)
	if len(recs) < 2 {
		t.Fatalf("%d records exported, want at least 2", len(recs))
	}
	if newOver(t, cfg, dir).Prefill(pt) {
		t.Fatal("Prefill true over an empty store")
	}

	// Every layer but one in the store: still not answerable locally.
	if n := newOver(t, cfg, dir).InstallRecords(recs[:len(recs)-1]); n != len(recs)-1 {
		t.Fatalf("installed %d of %d records", n, len(recs)-1)
	}
	if newOver(t, cfg, dir).Prefill(pt) {
		t.Fatal("Prefill true with one layer record missing from the store")
	}

	newOver(t, cfg, dir).InstallRecords(recs[len(recs)-1:])
	coord := newOver(t, cfg, dir)
	if !coord.Prefill(pt) {
		t.Fatal("Prefill false with every layer record in the store")
	}
	if st := coord.Stats(); st.PersistHits != len(recs) {
		t.Fatalf("Prefill counted %d persist hits, want %d", st.PersistHits, len(recs))
	}
	// The second call answers from the record map alone.
	if !coord.Prefill(pt) {
		t.Fatal("Prefill false on its own installed records")
	}
	got := coord.Evaluate(pt)
	if err := resultsEquivalent(want, got); err != nil {
		t.Fatalf("prefilled evaluation differs: %v", err)
	}
	if st := coord.Stats(); st.LayerMisses != 0 || st.PersistHits != len(recs) {
		t.Fatalf("prefilled evaluator: %d layer searches, %d persist hits; want 0, %d", st.LayerMisses, st.PersistHits, len(recs))
	}

	// No store attached: nothing beyond the record map is local.
	if New(cacheTestConfig(s, PrunedMappings)).Prefill(pt) {
		t.Fatal("storeless evaluator claims a point it never evaluated")
	}
}

// TestInstallRecordsRejectsMismatched proves a record addressed to a
// different configuration can never answer a local search: wrong mode,
// wrong trial budget, and (in random mode) wrong seed all fail the
// persistKey round-trip and are skipped.
func TestInstallRecordsRejectsMismatched(t *testing.T) {
	s := spaceWithDummyParam(3)
	pt := campaignPoints(s, 1)[0]
	cfg := cacheTestConfig(s, PrunedMappings)
	worker := New(cfg)
	worker.Evaluate(pt)
	recs := worker.RecordsFor(pt)
	if len(recs) == 0 {
		t.Fatal("no records exported")
	}

	t.Run("wrong-trials", func(t *testing.T) {
		other := cfg
		other.MapTrials = cfg.MapTrials * 2
		coord := New(other)
		if n := coord.InstallRecords(recs); n != 0 {
			t.Fatalf("installed %d records with a different trial budget", n)
		}
	})
	t.Run("wrong-mode", func(t *testing.T) {
		other := cfg
		other.Mode = FixedDataflow
		coord := New(other)
		if n := coord.InstallRecords(recs); n != 0 {
			t.Fatalf("installed %d pruned-mode records into a fixed-dataflow evaluator", n)
		}
	})
	t.Run("wrong-seed-random-mode", func(t *testing.T) {
		rcfg := cacheTestConfig(s, RandomMappings)
		rworker := New(rcfg)
		rworker.Evaluate(pt)
		rrecs := rworker.RecordsFor(pt)
		if len(rrecs) == 0 {
			t.Fatal("no random-mode records exported")
		}
		other := rcfg
		other.Seed = rcfg.Seed + 1
		coord := New(other)
		if n := coord.InstallRecords(rrecs); n != 0 {
			t.Fatalf("installed %d records across a seed change", n)
		}
	})
}
