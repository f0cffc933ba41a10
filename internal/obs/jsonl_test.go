package obs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewJSONLSink(path, JSONLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{Run: "r", Kind: KindStepStarted, Attempt: 1},
		{Run: "r", Kind: KindBottleneckIdentified, Attempt: 1, Sub: 2, Factor: "T_noc_W", Contribution: 0.42, Scaling: 1.7},
		{Run: "r", Kind: KindMitigationProposed, Attempt: 1, Param: "NOC_W_bytes", Value: 32, Rule: "noc-width", Why: "wider links"},
		{Run: "r", Kind: KindBatchEvaluated, Attempt: 1, Points: 5, Hits: 2, Misses: 3, WallNs: 98765},
		{Run: "r", Kind: KindIncumbentImproved, Attempt: 1, Objective: 3.25, BudgetUtil: 0.8, Feasible: true, Point: "PEs=64"},
		// Infeasible incumbents carry an infinite objective; the sink must
		// survive it and the round trip must restore the exact value.
		{Run: "r", Kind: KindIncumbentImproved, Attempt: 2, Objective: Float(math.Inf(1)), BudgetUtil: Float(math.Inf(-1))},
		{Run: "r", Kind: KindNote, Attempt: 2, Text: "multi\nline\ntext\n"},
	}
	for _, ev := range evs {
		s.Emit(ev)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadTrace(path, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("read %d events, wrote %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].Seq != i+1 {
			t.Errorf("event %d Seq = %d, want %d (sink-assigned, monotonic)", i, got[i].Seq, i+1)
		}
		if !got[i].EqualDeterministic(evs[i]) {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, got[i], evs[i])
		}
	}
}

func TestJSONLTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := NewJSONLSink(path, JSONLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Emit(Event{Kind: KindStepStarted, Attempt: 1})
	s.Emit(Event{Kind: KindStepStarted, Attempt: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a hard kill mid-append: a truncated line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"seq":3,"kind":"step_st`)
	f.Close()

	var warned []string
	got, err := ReadTrace(path, func(format string, args ...any) {
		warned = append(warned, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("torn tail must not be a fatal error: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d events, want the 2 intact ones", len(got))
	}
	if len(warned) == 0 || !strings.Contains(warned[0], "torn") {
		t.Errorf("expected a torn-write warning, got %v", warned)
	}
}

func TestJSONLCorruptLineDropsRest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	content := `{"seq":1,"kind":"step_started","attempt":1}
not json at all
{"seq":3,"kind":"converged"}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned int
	got, err := ReadTrace(path, func(string, ...any) { warned++ })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read %d events, want 1 (corrupt line and everything after dropped)", len(got))
	}
	if warned == 0 {
		t.Error("corrupt line produced no warning")
	}
}

func TestJSONLEmptyTraceIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(path, nil); err == nil {
		t.Error("reading an empty trace should report an error")
	}
}
