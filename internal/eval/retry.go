package eval

import (
	"context"
	"fmt"
	"math"
	"time"

	"xdse/internal/arch"
)

// ErrClass classifies an evaluation failure for the transient-fault retry
// layer. The classes draw the line the serving layer's correctness depends
// on: a transient failure (a contained crash, a watchdog timeout, an
// injected flaky fault) describes the attempt, not the design, so it must
// never be charged, memoized, cached, or journaled as if the design itself
// were infeasible — it is retried under RetryPolicy and only becomes
// permanent once the attempt budget is exhausted. A permanent failure (a
// malformed point, a deliberate injected error) describes the design and is
// charged and memoized on the first attempt.
type ErrClass int

const (
	// ClassNone marks a successful evaluation (Result.Err is empty).
	ClassNone ErrClass = iota
	// ClassTransient marks a failure worth retrying: recovered panics,
	// watchdog timeouts, and injected FailFirstN/SlowFirstN faults. A
	// transient result is only ever visible to callers after the retry
	// budget is exhausted — at which point it has been reclassified
	// ClassPermanent — so memo, cache, journal, and budget accounting
	// never observe ClassTransient.
	ClassTransient
	// ClassPermanent marks a failure retrying cannot heal: malformed
	// points, injected ErrorAt faults, and transient failures that
	// survived every attempt. Permanent failures are charged against the
	// unique-design budget and memoized exactly like any other result.
	ClassPermanent
)

// String names the class.
func (c ErrClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	}
	return "unknown"
}

// RetryPolicy bounds the transient-fault retry loop of EvaluateCtx. The
// backoff is deliberately jitter-free — attempt n waits Backoff·2^(n-1),
// capped at BackoffCap — because determinism is a repository-wide contract:
// a retried evaluation must yield bit-identical results (and, under
// Workers=1, a bit-identical attempt sequence) on every run, so chaos tests
// can compare fingerprints against fault-free references.
type RetryPolicy struct {
	// MaxAttempts is the total number of evaluation attempts per design
	// (first try included). Values below 2 disable retries: every failure
	// is final on its first attempt.
	MaxAttempts int
	// Backoff is the delay before the first retry; each further retry
	// doubles it. Zero retries immediately.
	Backoff time.Duration
	// BackoffCap caps the doubled backoff (0 = uncapped).
	BackoffCap time.Duration
}

// DefaultRetry is the policy the serving layer applies when its options
// leave the policy zero: three attempts with a 10ms base backoff, capped at
// one second.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond, BackoffCap: time.Second}
}

// attempts resolves the effective attempt count (always at least one).
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// DelayBefore returns the deterministic backoff applied before the given
// retry (1-based: DelayBefore(1) precedes the second attempt). The fleet
// coordinator spaces a shard's dispatch attempts with the same schedule.
func (p RetryPolicy) DelayBefore(retry int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if p.BackoffCap > 0 && d >= p.BackoffCap {
			return p.BackoffCap
		}
		if d <= 0 { // overflow backstop
			return p.BackoffCap
		}
	}
	if p.BackoffCap > 0 && d > p.BackoffCap {
		return p.BackoffCap
	}
	return d
}

// erroredResult builds the infeasible Result recorded for a design whose
// evaluation failed outright: infinite objective, a large finite constraints
// budget, and the failure reason in both Err and Violations. The failure is
// classified ClassPermanent; transient paths use transientResult.
func erroredResult(pt arch.Point, reason string) *Result {
	return &Result{
		Point:      pt.Clone(),
		LatencyMs:  math.Inf(1),
		EnergyMJ:   math.Inf(1),
		Objective:  math.Inf(1),
		BudgetUtil: maxConstraintUtil,
		Violations: []string{reason},
		Err:        reason,
		ErrClass:   ClassPermanent,
	}
}

// transientResult is erroredResult classified ClassTransient: the retry
// layer re-attempts it instead of letting it reach the memo or journal.
func transientResult(pt arch.Point, reason string) *Result {
	r := erroredResult(pt, reason)
	r.ErrClass = ClassTransient
	return r
}

// cancelledResult builds the uncharged, uncached Result returned when an
// evaluation is abandoned by context cancellation. Cancellation is
// classified transient — the work is simply redone after resume — but is
// special-cased by the Cancelled flag everywhere, retries included.
func cancelledResult(pt arch.Point, err error) *Result {
	r := transientResult(pt, "evaluation cancelled: "+err.Error())
	r.Cancelled = true
	return r
}

// retryingEvaluate drives the transient-fault retry loop around
// protectedEvaluate: a ClassTransient failure is re-attempted under the
// configured RetryPolicy with a deterministic jitter-free backoff, and only
// the final outcome — a success, a permanent failure, or a transient
// failure that exhausted the attempt budget and is thereby reclassified
// permanent — escapes to be charged, memoized, and journaled. Cancellation
// aborts the loop (and any backoff sleep) immediately.
func (e *Evaluator) retryingEvaluate(ctx context.Context, pt arch.Point, ord int) *Result {
	maxAttempts := e.cfg.Retry.attempts()
	for attempt := 0; ; attempt++ {
		r := e.protectedEvaluate(ctx, pt, ord, attempt)
		r.Attempts = attempt + 1
		if r.Cancelled || r.Err == "" {
			return r
		}
		if r.ErrClass != ClassTransient {
			return r
		}
		e.cTransient.Inc()
		if attempt+1 >= maxAttempts {
			// Out of attempts: the transient failure is now permanent —
			// the only shape in which a transient error may ever be
			// charged, memoized, or journaled.
			r.ErrClass = ClassPermanent
			if attempt > 0 {
				r.Err = fmt.Sprintf("%s (permanent after %d attempts)", r.Err, r.Attempts)
			}
			return r
		}
		e.cRetries.Inc()
		if d := e.cfg.Retry.DelayBefore(attempt + 1); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return cancelledResult(pt, ctx.Err())
			}
		}
	}
}

// protectedEvaluate runs one design-evaluation attempt inside the
// resilience envelope: injected faults applied, panics recovered into
// transient errored results, and — when Config.EvalTimeout is set — a
// watchdog that abandons runaway attempts. One bad design must never take
// down a campaign; whether a failed attempt is final is the retry layer's
// decision (see retryingEvaluate).
func (e *Evaluator) protectedEvaluate(ctx context.Context, pt arch.Point, ord, attempt int) (r *Result) {
	defer func() {
		if rec := recover(); rec != nil {
			e.cPanics.Inc()
			// A crash describes the attempt, not the design: classified
			// transient so the retry layer may re-attempt it. Without
			// retries it goes permanent immediately, preserving the
			// pre-retry charged-and-memoized behavior.
			r = transientResult(pt, fmt.Sprintf("panic during evaluation: %v", rec))
		}
	}()
	if e.cfg.EvalTimeout <= 0 {
		return e.runEvaluate(ctx, pt, ord, attempt)
	}
	// Watchdog: run the evaluation on its own goroutine and race it
	// against the deadline and the context. A panic on that goroutine is
	// ferried back and re-raised here so the recover above owns it.
	resCh := make(chan *Result, 1)
	panicCh := make(chan any, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				panicCh <- rec
			}
		}()
		resCh <- e.runEvaluate(ctx, pt, ord, attempt)
	}()
	timer := time.NewTimer(e.cfg.EvalTimeout)
	defer timer.Stop()
	select {
	case r := <-resCh:
		return r
	case rec := <-panicCh:
		panic(rec)
	case <-timer.C:
		e.cTimeouts.Inc()
		return transientResult(pt, fmt.Sprintf("evaluation exceeded watchdog timeout %v", e.cfg.EvalTimeout))
	case <-ctx.Done():
		return cancelledResult(pt, ctx.Err())
	}
}

// runEvaluate applies any injected faults for this (unique-evaluation
// ordinal, attempt) site, then evaluates the design.
func (e *Evaluator) runEvaluate(ctx context.Context, pt arch.Point, ord, attempt int) *Result {
	if fp := e.cfg.Faults; fp != nil && ord >= 0 {
		if d := fp.delayFor(ord, attempt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return cancelledResult(pt, ctx.Err())
			}
		}
		if fp.panicAt(ord, attempt) {
			panic(fmt.Sprintf("injected fault: panic at unique evaluation %d", ord))
		}
		if fp.errorAt(ord, attempt) {
			return erroredResult(pt, fmt.Sprintf("injected fault: error at unique evaluation %d", ord))
		}
		if fp.transientAt(ord, attempt) {
			return transientResult(pt, fmt.Sprintf("injected fault: transient error at unique evaluation %d attempt %d", ord, attempt))
		}
	}
	return e.evaluate(ctx, pt)
}
