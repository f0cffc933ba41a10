package eval

import (
	"slices"
	"time"
)

// FaultPolicy deterministically injects failures into chosen evaluations so
// tests can prove the resilience layer — panic containment, errored-design
// accounting, watchdog timeouts, transient-fault retries, and
// kill-and-resume determinism — without touching the models themselves.
//
// Faults are addressed by unique-evaluation ordinal: the 0-based order in
// which never-before-seen design keys begin evaluating. Memoized revisits,
// in-flight joins, recomputes of evicted designs, and checkpoint-primed keys
// never consume an ordinal, so under Workers=1 the ordinal sequence is fully
// deterministic. Retried attempts of the same design (see RetryPolicy) share
// one ordinal; injection sites are therefore addressed by (ordinal, attempt):
//
//   - The single-shot lists (PanicAt, ErrorAt, DelayAt) fire on the first
//     attempt only. Without retries a fired fault is final — the errored
//     design is charged and memoized, never retried. With retries enabled,
//     a transient-classified single-shot fault (a panic, a watchdog
//     timeout) heals on the second attempt.
//   - The attempt-aware maps (FailFirstN, SlowFirstN) fire on every attempt
//     below their threshold, so the retry/backoff paths are testable
//     deterministically under Workers=1.
type FaultPolicy struct {
	// PanicAt lists unique-evaluation ordinals whose first attempt panics
	// (exercising the containment and recovery paths).
	PanicAt []int
	// ErrorAt lists ordinals whose first attempt returns an injected
	// permanently-errored result without running the models. ErrorAt
	// faults are classified ClassPermanent: they are never retried.
	ErrorAt []int
	// DelayAt lists ordinals whose first attempt sleeps for Delay before
	// starting (exercising the Config.EvalTimeout watchdog; the sleep is
	// cancellable by the evaluation context).
	DelayAt []int
	// FailFirstN maps a unique-evaluation ordinal to the number of leading
	// attempts that fail with an injected transient error; once that many
	// attempts have failed, later attempts succeed. This is the
	// deterministic test surface of the retry layer: with
	// RetryPolicy.MaxAttempts above the threshold the fault heals and the
	// design evaluates normally, below it the failure goes permanent.
	FailFirstN map[int]int
	// SlowFirstN maps ordinals to the number of leading attempts that
	// sleep for Delay before evaluating. With Config.EvalTimeout below
	// Delay, exactly those attempts become (transient) watchdog timeouts —
	// the deterministic way to exercise the timeout-retry path.
	SlowFirstN map[int]int
	// Delay is the sleep applied at DelayAt and SlowFirstN sites.
	Delay time.Duration
	// OnEvaluation, when non-nil, is called synchronously at the start of
	// every unique evaluation's first attempt with its ordinal — the hook
	// kill-and-resume tests use to cancel a campaign at an exact
	// evaluation index. It runs outside the panic-containment envelope;
	// it must not panic.
	OnEvaluation func(ord int)
}

// panicAt reports whether this attempt's evaluation should panic.
func (p *FaultPolicy) panicAt(ord, attempt int) bool {
	return p != nil && attempt == 0 && slices.Contains(p.PanicAt, ord)
}

// errorAt reports whether this attempt's evaluation should fail with an
// injected permanent error.
func (p *FaultPolicy) errorAt(ord, attempt int) bool {
	return p != nil && attempt == 0 && slices.Contains(p.ErrorAt, ord)
}

// transientAt reports whether this attempt's evaluation should fail with an
// injected transient error (the FailFirstN retry-layer surface).
func (p *FaultPolicy) transientAt(ord, attempt int) bool {
	return p != nil && attempt < p.FailFirstN[ord]
}

// delayFor returns the sleep to apply before this attempt's evaluation
// (zero for sites not in DelayAt or below their SlowFirstN threshold).
func (p *FaultPolicy) delayFor(ord, attempt int) time.Duration {
	if p == nil {
		return 0
	}
	if attempt == 0 && slices.Contains(p.DelayAt, ord) {
		return p.Delay
	}
	if attempt < p.SlowFirstN[ord] {
		return p.Delay
	}
	return 0
}
