package eval

import "time"

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
