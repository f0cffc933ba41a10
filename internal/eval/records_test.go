package eval

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// recordsOf exports the records of results through AppendRecords and reads
// each line back with the record decoder, as a coordinator does, failing on
// a line it refuses or a version stamp other than perf.ModelVersion.
func recordsOf(tb testing.TB, e *Evaluator, results ...*Result) []evalcache.Record {
	tb.Helper()
	data, n := e.AppendRecords(nil, results)
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if len(lines) != n+1 || len(lines[n]) != 0 {
		tb.Fatalf("%d records exported over %d lines", n, len(lines))
	}
	var recs []evalcache.Record
	for _, line := range lines[:n] {
		rec, version, err := evalcache.DecodeRecord(line, nil, nil)
		if err != nil || version != perf.ModelVersion() {
			tb.Fatalf("decode %q: %v (version %q)", line, err, version)
		}
		recs = append(recs, rec)
	}
	return recs
}

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
	if ev.Memoized(pt.Key()) {
		t.Fatal("fresh evaluator claims a memoized point")
	}
	ev.Evaluate(pt)
	if !ev.Memoized(pt.Key()) {
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
			for _, pt := range pts {
				want = append(want, worker.Evaluate(pt))
			}
			recs := recordsOf(t, worker, want...)
			if len(recs) == 0 {
				t.Fatal("worker exported no records")
			}

			coord := New(cfg)
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

// TestRecordMapHoldsOnlyInstalls: a local campaign, cold or warm over a
// store, writes nothing to the record map, because each design's Result holds
// its decisions; and AppendRecords exports nothing for an errored or a
// cancelled result.
func TestRecordMapHoldsOnlyInstalls(t *testing.T) {
	s := arch.EdgeSpace()
	pts := campaignPoints(s, 6)
	cfg := cacheTestConfig(s, PrunedMappings)
	dir := t.TempDir()
	for _, run := range []string{"cold", "warm"} {
		e := newOver(t, cfg, dir)
		for _, pt := range pts {
			r := e.Evaluate(pt)
			if r.Err != "" {
				t.Fatalf("%s: %s", run, r.Err)
			}
			if n := len(recordsOf(t, e, r)); n != len(e.slots) {
				t.Fatalf("%s: %d records exported, want one per slot (%d)", run, n, len(e.slots))
			}
		}
		st := e.Stats()
		if warm := run == "warm"; warm != (st.LayerMisses == 0) || warm != (st.PersistHits > 0) {
			t.Fatalf("%s: %d searches and %d store hits", run, st.LayerMisses, st.PersistHits)
		}
		if n := len(e.records.m); n != 0 {
			t.Errorf("%s campaign left %d decisions in the record map, want 0", run, n)
		}
	}

	e := New(cfg)
	bad := e.Evaluate(arch.Point{0})
	if bad.Err == "" {
		t.Fatal("a malformed point evaluated without error")
	}
	if data, n := e.AppendRecords(nil, []*Result{bad}); n != 0 || len(data) != 0 {
		t.Errorf("an errored result exported %d records", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gone := e.EvaluateCtx(ctx, pts[0])
	if !gone.Cancelled {
		t.Fatal("evaluation under a cancelled context not cancelled")
	}
	if data, n := e.AppendRecords(nil, []*Result{gone}); n != 0 || len(data) != 0 {
		t.Errorf("a cancelled result exported %d records", n)
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
	for _, pt := range pts {
		want = append(want, worker.Evaluate(pt))
	}
	recs := recordsOf(t, worker, want...)
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

// TestHasRecords is the coordinator's local-first contract: a fresh evaluator
// over a persistent store reports a point answerable only once every layer
// record AppendRecords exports is in the store, and then evaluates it
// bit-identically without running a single layer search. The query itself
// copies and counts nothing; the evaluation counts the store hits.
func TestHasRecords(t *testing.T) {
	s := spaceWithDummyParam(3)
	pt := campaignPoints(s, 1)[0]
	cfg := cacheTestConfig(s, PrunedMappings)
	dir := t.TempDir()

	worker := New(cacheTestConfig(s, PrunedMappings))
	want := worker.Evaluate(pt)
	recs := recordsOf(t, worker, want)
	if len(recs) < 2 {
		t.Fatalf("%d records exported, want at least 2", len(recs))
	}
	if newOver(t, cfg, dir).HasRecords(pt) {
		t.Fatal("HasRecords true over an empty store")
	}

	// Every layer but one in the store: still not answerable locally.
	if n := newOver(t, cfg, dir).InstallRecords(recs[:len(recs)-1]); n != len(recs)-1 {
		t.Fatalf("installed %d of %d records", n, len(recs)-1)
	}
	if newOver(t, cfg, dir).HasRecords(pt) {
		t.Fatal("HasRecords true with one layer record missing from the store")
	}

	newOver(t, cfg, dir).InstallRecords(recs[len(recs)-1:])
	coord := newOver(t, cfg, dir)
	for range 2 {
		if !coord.HasRecords(pt) {
			t.Fatal("HasRecords false with every layer record in the store")
		}
	}
	if st := coord.Stats(); st.PersistHits != 0 || st.LayerHits != 0 {
		t.Fatalf("HasRecords counted %d persist hits and %d record-map hits, want 0", st.PersistHits, st.LayerHits)
	}
	if n := len(coord.records.m); n != 0 {
		t.Fatalf("HasRecords copied %d records into the record map, want 0", n)
	}
	got := coord.Evaluate(pt)
	if err := resultsEquivalent(want, got); err != nil {
		t.Fatalf("evaluation over the store differs: %v", err)
	}
	if st := coord.Stats(); st.LayerMisses != 0 || st.PersistHits != len(recs) {
		t.Fatalf("evaluation over the store: %d layer searches, %d persist hits; want 0, %d", st.LayerMisses, st.PersistHits, len(recs))
	}

	// An installed record is local without a store.
	installed := New(cacheTestConfig(s, PrunedMappings))
	installed.InstallRecords(recs)
	if !installed.HasRecords(pt) {
		t.Fatal("HasRecords false on installed records")
	}
	// No store attached: nothing beyond the record map is local.
	if New(cacheTestConfig(s, PrunedMappings)).HasRecords(pt) {
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
	recs := recordsOf(t, worker, worker.Evaluate(pt))
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
		rrecs := recordsOf(t, rworker, rworker.Evaluate(pt))
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

// TestAppendRecordsExportsTwinsOnce: twins, designs that differ only in a
// parameter no layer search reads, share every layer record, so one export
// of both carries the records once; designs with different sub-keys share
// none.
func TestAppendRecordsExportsTwinsOnce(t *testing.T) {
	s := spaceWithDummyParam(3)
	pts := campaignPoints(s, 6) // two designs, each under three dummy values
	e := New(cacheTestConfig(s, PrunedMappings))
	var results []*Result
	for _, pt := range pts {
		results = append(results, e.Evaluate(pt))
	}
	recs := recordsOf(t, e, results...)
	if want := 2 * len(e.slots); len(recs) != want {
		t.Fatalf("%d records exported for two designs of three twins each, want %d", len(recs), want)
	}
	seen := map[evalcache.Key]bool{}
	for _, rec := range recs {
		if seen[rec.Key] {
			t.Fatalf("record %+v exported twice", rec.Key)
		}
		seen[rec.Key] = true
	}
	if one := recordsOf(t, e, results[0]); len(one) != len(e.slots) {
		t.Fatalf("one design exported %d records, want %d", len(one), len(e.slots))
	}
}

// TestAppendRecordsAllocs pins the worker's export of one shard: it grows
// its buffer once and frames each line in place, so an export allocates the
// buffer, the sub-key list and one sub-key per design, and nothing per
// record. One design of a 10-shape model (10 records) and one of a
// 100-shape model (100 records) allocate alike; ten designs of the 10-shape
// model (100 records) allocate nine sub-keys more.
func TestAppendRecordsAllocs(t *testing.T) {
	shapes := func(n int) *workload.Model {
		m := &workload.Model{Name: fmt.Sprintf("shapes%d", n), MaxLatencyMs: 100}
		seen := map[string]bool{}
		for _, suite := range workload.Suite() {
			for _, l := range suite.Layers {
				if len(m.Layers) < n && !seen[l.ShapeKey()] {
					seen[l.ShapeKey()] = true
					m.Layers = append(m.Layers, l)
				}
			}
		}
		return m
	}
	s := arch.EdgeSpace()
	pts := campaignPoints(s, 10)
	for _, mode := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		export := func(e *Evaluator, results []*Result, records int) float64 {
			if _, n := e.AppendRecords(nil, results); n != records {
				t.Fatalf("%v: %d designs exported %d records, want %d", mode, len(results), n, records)
			}
			return testing.AllocsPerRun(20, func() { e.AppendRecords(nil, results) })
		}
		ten, hundred := newEval(mode, shapes(10)), newEval(mode, shapes(100))
		var tens []*Result
		for _, pt := range pts {
			tens = append(tens, ten.Evaluate(pt))
		}
		one10 := export(ten, tens[:1], 10)
		one100 := export(hundred, []*Result{hundred.Evaluate(pts[0])}, 100)
		ten10 := export(ten, tens, 100)
		if one10 != 3 || one100 != one10 || ten10 != one10+9 {
			t.Errorf("%v: an export allocates %.0f times for one design of 10 records, %.0f for one of 100 and %.0f for ten of 10; want 3, 3 and 12",
				mode, one10, one100, ten10)
		}
	}
}
