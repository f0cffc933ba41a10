package eval

import (
	"context"
	"strings"
	"testing"
	"time"

	"xdse/internal/arch"
	"xdse/internal/workload"
)

// newRetryEval is newFaultEval with a retry policy attached.
func newRetryEval(fp *FaultPolicy, retry RetryPolicy, timeout time.Duration) *Evaluator {
	return New(Config{
		Space:       arch.EdgeSpace(),
		Models:      []*workload.Model{workload.ResNet18()},
		Constraints: EdgeConstraints(),
		Mode:        FixedDataflow,
		MapTrials:   200,
		Seed:        1,
		Workers:     1,
		Faults:      fp,
		Retry:       retry,
		EvalTimeout: timeout,
	})
}

func TestRetryPolicyBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, Backoff: 10 * time.Millisecond, BackoffCap: 50 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 50, 50}
	for i, w := range want {
		if got := p.DelayBefore(i + 1); got != w*time.Millisecond {
			t.Errorf("DelayBefore(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if got := (RetryPolicy{}).DelayBefore(3); got != 0 {
		t.Errorf("zero-policy DelayBefore = %v, want 0", got)
	}
	if got := (RetryPolicy{}).attempts(); got != 1 {
		t.Errorf("zero-policy attempts = %d, want 1", got)
	}
}

// TestTransientErrorHealedByRetry is the core retry contract: a design whose
// first attempts fail with a transient error evaluates bit-identically to a
// fault-free run once a retry succeeds, and the transient failures leave no
// trace in the memo, the budget, or the result.
func TestTransientErrorHealedByRetry(t *testing.T) {
	pt := compatiblePoint(arch.EdgeSpace())

	ref := newRetryEval(nil, RetryPolicy{}, 0).Evaluate(pt)
	if ref.Err != "" {
		t.Fatalf("reference evaluation errored: %q", ref.Err)
	}

	e := newRetryEval(&FaultPolicy{FailFirstN: map[int]int{0: 2}},
		RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}, 0)
	r := e.Evaluate(pt)
	if r.Err != "" {
		t.Fatalf("healed evaluation errored: %q", r.Err)
	}
	if r.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", r.Attempts)
	}
	if r.ErrClass != ClassNone {
		t.Errorf("ErrClass = %v, want none", r.ErrClass)
	}
	if r.Objective != ref.Objective || r.Feasible != ref.Feasible || r.BudgetUtil != ref.BudgetUtil {
		t.Errorf("healed result differs from fault-free: obj %v vs %v", r.Objective, ref.Objective)
	}
	st := e.Stats()
	if st.TransientFaults != 2 || st.Retries != 2 {
		t.Errorf("TransientFaults/Retries = %d/%d, want 2/2", st.TransientFaults, st.Retries)
	}
	if st.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want 1 (retries are not new unique evaluations)", st.Evaluations)
	}
	// The memoized entry is the healed result, not a poisoned failure.
	if again := e.Evaluate(pt); again != r {
		t.Error("healed result not memoized")
	}
}

// TestTransientExhaustedBecomesPermanent: a transient fault that outlives the
// attempt budget is reclassified permanent, charged, and memoized — and the
// fault is never re-fired on revisits.
func TestTransientExhaustedBecomesPermanent(t *testing.T) {
	e := newRetryEval(&FaultPolicy{FailFirstN: map[int]int{0: 5}},
		RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}, 0)
	pt := compatiblePoint(e.Config().Space)
	r := e.Evaluate(pt)
	assertErrored(t, r, "injected fault: transient error")
	if r.ErrClass != ClassPermanent {
		t.Errorf("ErrClass = %v, want permanent", r.ErrClass)
	}
	if !strings.Contains(r.Err, "permanent after 2 attempts") {
		t.Errorf("Err = %q, want the exhaustion suffix", r.Err)
	}
	if r.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", r.Attempts)
	}
	st := e.Stats()
	if st.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want 1 (permanent failure is charged once)", st.Evaluations)
	}
	if again := e.Evaluate(pt); again != r {
		t.Error("permanently-failed design not memoized")
	}
	if st := e.Stats(); st.TransientFaults != 2 {
		t.Errorf("TransientFaults after revisit = %d, want 2 (memo answered, no re-fire)", st.TransientFaults)
	}
}

// TestPanicHealedByRetry: recovered panics are transient, so with retries a
// first-attempt panic heals into a normal evaluation.
func TestPanicHealedByRetry(t *testing.T) {
	e := newRetryEval(&FaultPolicy{PanicAt: []int{0}},
		RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}, 0)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	if r.Err != "" {
		t.Fatalf("panic not healed by retry: %q", r.Err)
	}
	if r.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", r.Attempts)
	}
	st := e.Stats()
	if st.PanicsRecovered != 1 || st.Retries != 1 || st.Evaluations != 1 {
		t.Errorf("stats = %+v, want 1 recovered panic, 1 retry, 1 evaluation", st)
	}
}

// TestWatchdogTimeoutHealedByRetry: a SlowFirstN attempt exceeds the
// watchdog, classifies transient, and the retried attempt succeeds.
func TestWatchdogTimeoutHealedByRetry(t *testing.T) {
	e := newRetryEval(&FaultPolicy{SlowFirstN: map[int]int{0: 1}, Delay: 2 * time.Second},
		RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond}, 100*time.Millisecond)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	if r.Err != "" {
		t.Fatalf("timeout not healed by retry: %q", r.Err)
	}
	if r.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", r.Attempts)
	}
	st := e.Stats()
	if st.EvalTimeouts != 1 || st.Retries != 1 {
		t.Errorf("EvalTimeouts/Retries = %d/%d, want 1/1", st.EvalTimeouts, st.Retries)
	}
}

// TestPermanentErrorNotRetried: injected ErrorAt faults are ClassPermanent —
// the retry layer must not spend attempts on them.
func TestPermanentErrorNotRetried(t *testing.T) {
	e := newRetryEval(&FaultPolicy{ErrorAt: []int{0}},
		RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond}, 0)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	assertErrored(t, r, "injected fault: error at unique evaluation 0")
	if r.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (permanent errors are final)", r.Attempts)
	}
	if r.ErrClass != ClassPermanent {
		t.Errorf("ErrClass = %v, want permanent", r.ErrClass)
	}
	if st := e.Stats(); st.Retries != 0 {
		t.Errorf("Retries = %d, want 0", st.Retries)
	}
}

// TestRetryBackoffCancellable: cancelling the context during a backoff sleep
// abandons the evaluation — uncharged, unmemoized — like any cancellation.
func TestRetryBackoffCancellable(t *testing.T) {
	e := newRetryEval(&FaultPolicy{FailFirstN: map[int]int{0: 9}},
		RetryPolicy{MaxAttempts: 10, Backoff: time.Hour}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	r := e.EvaluateCtx(ctx, compatiblePoint(e.Config().Space))
	if !r.Cancelled {
		t.Fatalf("result not Cancelled: %+v", r)
	}
	if st := e.Stats(); st.Evaluations != 0 {
		t.Errorf("Evaluations = %d, want 0 (cancelled work is uncharged)", st.Evaluations)
	}
}

// TestDefaultConfigRetriesDisabled: the zero-value policy keeps the
// pre-retry behavior — one attempt, failure charged and memoized — so
// existing campaigns and their fingerprints are unaffected.
func TestDefaultConfigRetriesDisabled(t *testing.T) {
	e := newRetryEval(&FaultPolicy{PanicAt: []int{0}}, RetryPolicy{}, 0)
	r := e.Evaluate(compatiblePoint(e.Config().Space))
	assertErrored(t, r, "panic during evaluation")
	if r.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", r.Attempts)
	}
	if r.ErrClass != ClassPermanent {
		t.Errorf("ErrClass = %v, want permanent (no attempts remain)", r.ErrClass)
	}
	if strings.Contains(r.Err, "permanent after") {
		t.Errorf("Err = %q: single-attempt failures must keep their original text", r.Err)
	}
}
