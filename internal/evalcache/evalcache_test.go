package evalcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xdse/internal/mapping"
	"xdse/internal/perf"
)

// testEntry builds a distinct search decision per seed.
func testEntry(seed int) Entry {
	ent := Entry{Found: seed%4 != 3, Trials: 100 + seed}
	for d := 0; d < int(mapping.NumDims); d++ {
		for l := 0; l < int(mapping.NumLevels); l++ {
			ent.Mapping.F[d][l] = 1 + (d+l+seed)%5
		}
	}
	ent.Mapping.DRAMStationary = mapping.Tensor(seed % int(mapping.NumTensors))
	ent.Mapping.NoCStationary = mapping.Tensor((seed + 1) % int(mapping.NumTensors))
	return ent
}

func testKey(i int) Key {
	return Key{Shape: "1|3,3,64,64,56,56|1", Sub: "sub", Mode: "pruned-mappings", Trials: 500, Salt: int64(i)}
}

// TestRoundTripBitExact checks that a store reopened over its directory
// reproduces every entry exactly from disk alone.
func TestRoundTripBitExact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 5 {
		t.Fatalf("reopened store has %d records, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("key %d missing after reopen", i)
		}
		if got != testEntry(i) {
			t.Errorf("key %d: round trip changed the entry:\n got  %+v\n want %+v", i, got, testEntry(i))
		}
	}
}

// TestParentFormatLinesLoad opens a store holding one line per mapper mode
// written before records dropped the derived breakdown: each still carries
// "perf", "cost_calls", "lb_pruned" and "warm_fallback". They must load as
// current records — neither corrupt nor stale — which is why dropping those
// fields needed no cost-model version bump.
func TestParentFormatLinesLoad(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"perf":`, `"cost_calls":`, `"lb_pruned":`, `"warm_fallback":`} {
		if n := strings.Count(string(data), field); n != 3 {
			t.Fatalf("fixture carries %s on %d lines, want 3", field, n)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, dataFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"evalcache_corrupt_records_total", "evalcache_stale_records_total"} {
		if got := s.Metrics().Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("loaded %d parent-format records, want 3", s.Len())
	}
	modes := map[string]bool{}
	for _, key := range s.order {
		ent, _ := s.Get(key)
		if !ent.Found || ent.Trials == 0 || ent.Mapping.F[0][0] == 0 {
			t.Errorf("%s record decoded to an empty decision: %+v", key.Mode, ent)
		}
		modes[key.Mode] = true
	}
	if len(modes) != 3 {
		t.Errorf("fixture covers modes %v, want all three", modes)
	}
}

func TestDuplicatePutIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testKey(0), testEntry(0))
	s.Put(testKey(0), testEntry(0))
	if got := s.Metrics().Counter("evalcache_records_written_total").Value(); got != 1 {
		t.Errorf("writes = %d, want 1 (duplicate Put must not re-append)", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// TestCorruptRecordIsMissNeverWrong flips bytes in one record and checks the
// contract: that record degrades to a miss, every other record still loads,
// and the damage is compacted away so the next open is clean.
func TestCorruptRecordIsMissNeverWrong(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	path := filepath.Join(dir, dataFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Corrupt the middle record's payload (CRC now mismatches).
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0xFF
	lines[1] = string(mid)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over corrupt file must succeed, got %v", err)
	}
	if got := s2.Metrics().Counter("evalcache_corrupt_records_total").Value(); got != 1 {
		t.Errorf("corrupt counter = %d, want 1", got)
	}
	if _, ok := s2.Get(testKey(1)); ok {
		t.Error("corrupted record served as a hit")
	}
	for _, i := range []int{0, 2} {
		got, ok := s2.Get(testKey(i))
		if !ok {
			t.Fatalf("intact record %d lost", i)
		}
		if got != testEntry(i) {
			t.Errorf("intact record %d altered by recovery", i)
		}
	}
	// Compaction rewrote the file: a third open sees no corruption.
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Metrics().Counter("evalcache_corrupt_records_total").Value(); got != 0 {
		t.Errorf("corruption not compacted away: counter = %d after reopen", got)
	}
	if s3.Len() != 2 {
		t.Errorf("compacted store has %d records, want 2", s3.Len())
	}
}

// TestTornTailLosesOnlyLastRecord simulates a writer killed mid-append.
func TestTornTailLosesOnlyLastRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	path := filepath.Join(dir, dataFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("torn tail: %d records survive, want 2", s2.Len())
	}
	if _, ok := s2.Get(testKey(2)); ok {
		t.Error("torn record served as a hit")
	}
}

// TestDamageWarnsOncePerOpen: a store with several corrupt lines and a torn
// tail gives exactly one warning when it opens, naming both counts and the
// first bad line, while every damaged line still counts as corrupt.
func TestDamageWarnsOncePerOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	path := filepath.Join(dir, dataFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	for _, i := range []int{1, 2, 4} {
		line := []byte(lines[i])
		line[len(line)/2] ^= 0xFF
		lines[i] = string(line)
	}
	damaged := strings.Join(lines, "")
	if err := os.WriteFile(path, []byte(damaged[:len(damaged)-10]), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	s2, err := Open(dir, Options{Warnf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 {
		t.Fatalf("%d warnings, want 1: %q", len(warnings), warnings)
	}
	if w := warnings[0]; !strings.Contains(w, "3 corrupt and 1 torn lines") || !strings.Contains(w, "line 2:") {
		t.Errorf("warning %q does not name 3 corrupt and 1 torn lines, first at line 2", w)
	}
	if got := s2.Metrics().Counter("evalcache_corrupt_records_total").Value(); got != 4 {
		t.Errorf("corrupt counter = %d, want 4", got)
	}
	if s2.Len() != 2 {
		t.Errorf("%d records survive, want 2", s2.Len())
	}
}

// TestStaleVersionRetired checks that a record written under another
// cost-model version reads as a miss and is physically retired: the open
// that drops it compacts it out of the file and keeps the current record.
func TestStaleVersionRetired(t *testing.T) {
	dir := t.TempDir()
	var file []byte
	for _, rec := range []struct {
		key     Key
		version string
	}{{testKey(0), "model-other"}, {testKey(1), perf.ModelVersion()}} {
		line, err := encode(rec.key, testEntry(0), rec.version, 0)
		if err != nil {
			t.Fatal(err)
		}
		file = append(file, line...)
	}
	path := filepath.Join(dir, dataFile)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(0)); ok || s.Len() != 1 {
		t.Fatalf("stale record loaded: Len = %d", s.Len())
	}
	if got := s.Metrics().Counter("evalcache_stale_records_total").Value(); got != 1 {
		t.Errorf("stale counter = %d, want 1", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "model-other") || strings.Count(string(data), "\n") != 1 {
		t.Errorf("the open did not compact the stale record away:\n%s", data)
	}
}

func TestDefaultVersionIsModelVersion(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != perf.ModelVersion() {
		t.Errorf("default version = %q, want perf.ModelVersion() = %q", s.Version(), perf.ModelVersion())
	}
}

// TestIndexBound checks the FIFO leak guard: the in-memory index stays within
// its bound (lowered here from maxIndexEntries) while the file keeps
// everything for the next open.
func TestIndexBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.maxN = 4
	for i := 0; i < 10; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	if s.Len() > 4 {
		t.Errorf("bounded index holds %d entries, cap 4", s.Len())
	}
	if got := s.Metrics().Counter("evalcache_index_evictions_total").Value(); got != 6 {
		t.Errorf("evictions = %d, want 6", got)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 10 {
		t.Errorf("reopen sees %d records, want all 10 (eviction is memory-only)", s2.Len())
	}
}

// writeStore writes n current-version records straight into dir's data
// file, as the Puts of a campaign over subs designs and shapes layer shapes
// leave it: each design's records are contiguous, and salts keep the keys
// distinct.
func writeStore(tb testing.TB, dir string, n, subs, shapes int) {
	tb.Helper()
	var file []byte
	for i := range n {
		key := Key{
			Shape:  fmt.Sprintf("0|%d,64,56,56,3,3|1", 16+i%shapes),
			Sub:    fmt.Sprintf("pe%d,l1:128,l2:524288,noc16,bpc256/125,W:4x64,I:4x64,Ord:4x64,Owr:4x64", 64+i*subs/n),
			Mode:   "pruned-mappings",
			Trials: 200,
			Salt:   int64(i),
		}
		line, err := encode(key, testEntry(i), perf.ModelVersion(), 1_700_000_000)
		if err != nil {
			tb.Fatal(err)
		}
		file = append(file, line...)
	}
	if err := os.WriteFile(filepath.Join(dir, dataFile), file, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// TestOpenAllocsPerRecord pins the load's allocations: the index, the FIFO
// order and the slab of indexed decisions are sized once, a line's CRC is
// checked in place and its key strings come from the load's intern table,
// so what a load allocates grows with its distinct strings, not its
// records: 0.05 allocations a record here (40 designs' sub-keys over 2,000
// records), where a decision allocated apiece made 1.05 and the two-map
// load that copied each line and its four strings six.
func TestOpenAllocsPerRecord(t *testing.T) {
	const n = 2000
	dir := t.TempDir()
	writeStore(t, dir, n, 40, 20)
	var s *Store
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if s, err = Open(dir, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if s.Len() != n {
		t.Fatalf("loaded %d records, want %d", s.Len(), n)
	}
	if per := allocs / n; per >= 0.1 {
		t.Errorf("opening a %d-record store allocates %.2f times per record, want fewer than 0.1", n, per)
	}
}

// BenchmarkOpen opens a store the size of the benchmark campaign's warm
// store (14,162 records over ~650 designs).
func BenchmarkOpen(b *testing.B) {
	const n = 14_000
	dir := b.TempDir()
	writeStore(b, dir, n, n/22, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != n {
			b.Fatalf("loaded %d records, want %d", s.Len(), n)
		}
	}
}

// TestConcurrentStoresShareDirectory drives two Stores over one directory
// from many goroutines — the cross-process contention shape, in-process so
// the race detector can see it — then proves the resulting file is fully
// intact: every record written by either store loads CRC-clean.
func TestConcurrentStoresShareDirectory(t *testing.T) {
	dir := t.TempDir()
	sa, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const perStore = 20
	var wg sync.WaitGroup
	for g, s := range []*Store{sa, sb} {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for i := 0; i < perStore; i++ {
				s.Put(testKey(g*1000+i), testEntry(i))
				s.Get(testKey(i))
			}
		}(g, s)
	}
	wg.Wait()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Metrics().Counter("evalcache_corrupt_records_total").Value(); got != 0 {
		t.Errorf("concurrent appends corrupted %d records", got)
	}
	if s2.Len() != 2*perStore {
		t.Errorf("reopen sees %d records, want %d", s2.Len(), 2*perStore)
	}
	for g := 0; g < 2; g++ {
		for i := 0; i < perStore; i++ {
			got, ok := s2.Get(testKey(g*1000 + i))
			if !ok {
				t.Fatalf("record (%d,%d) lost under concurrency", g, i)
			}
			if got != testEntry(i) {
				t.Fatalf("record (%d,%d) altered under concurrency", g, i)
			}
		}
	}
}
