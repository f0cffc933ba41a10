package checkpoint

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdse/internal/search"
)

// costsFor fabricates a distinguishable Costs for key index i, exercising
// both feasible and errored shapes.
func costsFor(i int) search.Costs {
	if i%3 == 0 {
		return search.ErroredCosts(fmt.Sprintf("fault %d", i))
	}
	return search.Costs{
		Objective:      1.5 * float64(i),
		Feasible:       i%2 == 0,
		MeetsAreaPower: true,
		BudgetUtil:     0.25 * float64(i),
		Violations:     i % 4,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), costsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs := j2.Replayed()
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Step != i || r.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, r.Step, r.Key, i, fmt.Sprintf("k%d", i))
		}
		want := costsFor(i)
		want.Raw = nil
		if r.Costs != want {
			t.Fatalf("record %d costs = %+v, want %+v", i, r.Costs, want)
		}
	}
}

func TestJournalInfNaNRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]search.Costs{
		"posinf":  {Objective: math.Inf(1), BudgetUtil: 1e6, Violations: 1},
		"neginf":  {Objective: math.Inf(-1)},
		"nan":     {Objective: math.NaN()},
		"negzero": {Objective: math.Copysign(0, -1), Feasible: true},
		"tiny":    {Objective: 5e-324, BudgetUtil: math.Nextafter(1, 2), Feasible: true},
	}
	for k, c := range cases {
		if err := j.Append(k, c); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(dir, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(cases) {
		t.Fatalf("loaded %d records, want %d", len(recs), len(cases))
	}
	for _, r := range recs {
		want := cases[r.Key]
		if math.Float64bits(r.Costs.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("%s: objective bits %016x, want %016x", r.Key,
				math.Float64bits(r.Costs.Objective), math.Float64bits(want.Objective))
		}
		if math.Float64bits(r.Costs.BudgetUtil) != math.Float64bits(want.BudgetUtil) {
			t.Errorf("%s: budget bits differ", r.Key)
		}
	}
}

func TestJournalDedupByKey(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append("same", costsFor(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append("other", costsFor(2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "same" || recs[1].Key != "other" {
		t.Fatalf("loaded %v", recs)
	}
}

// TestJournalTornTrailingWrite simulates a hard kill mid-write by truncating
// the journal at every byte offset inside its final line and verifying that
// load always recovers exactly the intact prefix, warning instead of failing.
func TestJournalTornTrailingWrite(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), costsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFile)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the last line starts.
	body := strings.TrimSuffix(string(whole), "\n")
	lastStart := strings.LastIndexByte(body, '\n') + 1

	for cut := lastStart + 1; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		warned := 0
		recs, err := Load(dir, func(string, ...any) { warned++ })
		if err != nil {
			t.Fatalf("cut=%d: load failed: %v", cut, err)
		}
		if len(recs) != n-1 {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(recs), n-1)
		}
		if warned == 0 {
			t.Fatalf("cut=%d: expected a torn-write warning", cut)
		}
	}
	// Full file restored: all n records come back with no warning.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(dir, func(format string, args ...any) {
		t.Errorf("unexpected warning: "+format, args...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records from intact file, want %d", len(recs), n)
	}
}

// TestJournalCorruptMidline flips a payload byte in the middle line and
// verifies the CRC catches it: that line and everything after is dropped.
func TestJournalCorruptMidline(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), costsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, journalFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	// Corrupt a byte inside the second line's JSON payload.
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0xff
	lines[1] = string(mid)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	warned := 0
	recs, err := Load(dir, func(string, ...any) { warned++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != "k0" {
		t.Fatalf("recovered %v, want only k0", recs)
	}
	if warned == 0 {
		t.Fatal("expected a corruption warning")
	}
}

// TestJournalSnapshotRotation opens the layout an earlier build left after
// rotating its journal into a snapshot: a 10-record snapshot.jsonl and a
// 2-record journal tail. All 12 records replay in order, and the next append
// continues the sequence.
func TestJournalSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	var snap, tail []byte
	for i := 0; i < 12; i++ {
		line, err := encode(Record{Step: i, Key: fmt.Sprintf("k%d", i), Costs: costsFor(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i < 10 {
			snap = append(snap, line...)
		} else {
			tail = append(tail, line...)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := j.Replayed()
	if len(recs) != 12 {
		t.Fatalf("replayed %d records, want 12", len(recs))
	}
	for i, r := range recs {
		if r.Step != i || r.Key != fmt.Sprintf("k%d", i) {
			t.Fatalf("record %d = {%d %q}", i, r.Step, r.Key)
		}
	}
	if err := j.Append("k12", costsFor(12)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 13 || recs[12].Key != "k12" || recs[12].Step != 12 {
		t.Fatalf("after append loaded %d records, last %+v; want k12 at step 12", len(recs), recs[len(recs)-1])
	}
}

// TestJournalSnapshotCrashOverlap simulates a crash between the snapshot
// rename and the journal truncation: the journal tail still duplicates
// snapshot content, and Load must dedup by key.
func TestJournalSnapshotCrashOverlap(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), costsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Fake the crash window: copy the journal to the snapshot without
	// truncating the journal.
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("loaded %d records, want 4 (dedup failed)", len(recs))
	}
}

func TestJournalFresh(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(fmt.Sprintf("k%d", i), costsFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// An earlier build's snapshot beside the journal goes too.
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Fresh: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Replayed()); got != 0 {
		t.Fatalf("Fresh open replayed %d records, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("Fresh open left snapshot behind (err=%v)", err)
	}
}

func TestJournalAppendAfterResume(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("a", costsFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Replayed key is deduped; a new key extends the sequence.
	if err := j2.Append("a", costsFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append("b", costsFor(2)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "b" || recs[1].Step != 1 {
		t.Fatalf("loaded %+v", recs)
	}
}
