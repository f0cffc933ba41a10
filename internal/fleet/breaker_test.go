package fleet

import (
	"strings"
	"testing"
	"time"

	"xdse/internal/obs"
)

// breakerTestPool builds a two-worker pool (breakerK=3) with both members
// healthy and no monitor running, so breaker transitions happen only where
// the test drives them.
func breakerTestPool() (*pool, *obs.Registry) {
	reg := obs.NewRegistry()
	p := newPool([]string{"a:1", "b:2"}, "v", time.Second, 3, nil, reg, nil)
	for _, w := range p.workers {
		w.setState(workerHealthy)
	}
	return p, reg
}

func TestBreakerOpensAfterConsecutiveTransients(t *testing.T) {
	p, reg := breakerTestPool()
	w := p.workers[0]
	for i := 1; i <= 2; i++ {
		if opened := p.breakerResult(w, true); opened {
			t.Fatalf("breaker opened after %d faults, threshold is 3", i)
		}
		if !p.breakerAdmit(w) {
			t.Fatalf("closed breaker refused a dispatch after %d faults", i)
		}
	}
	if !p.breakerResult(w, true) {
		t.Fatal("third consecutive transient did not open the breaker")
	}
	if p.breakerAdmit(w) {
		t.Fatal("open breaker admitted a dispatch")
	}
	if got := reg.Counter("fleet_breaker_opens_total").Value(); got != 1 {
		t.Fatalf("fleet_breaker_opens_total = %d, want 1", got)
	}
	if got := reg.Gauge(`fleet_breaker_state{worker="a:1"}`).Value(); got != float64(breakerOpen) {
		t.Fatalf("breaker state gauge = %v, want open (%d)", got, breakerOpen)
	}
	// The report names the open breaker.
	lines := p.breakerLines()
	if len(lines) != 1 || !strings.Contains(lines[0], "breaker open") || !strings.Contains(lines[0], "a:1") {
		t.Fatalf("breakerLines = %v", lines)
	}
}

func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	p, _ := breakerTestPool()
	w := p.workers[0]
	p.breakerResult(w, true)
	p.breakerResult(w, true)
	p.breakerResult(w, false) // success wipes the streak
	p.breakerResult(w, true)
	if opened := p.breakerResult(w, true); opened {
		t.Fatal("non-consecutive transients opened the breaker")
	}
	if !p.breakerResult(w, true) {
		t.Fatal("third consecutive transient after the reset did not open")
	}
}

// TestBreakerHalfOpenSingleTrial: only a successful readyz probe moves an
// open breaker to half-open, which admits exactly one trial dispatch; the
// trial's outcome decides closed versus re-open.
func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	p, reg := breakerTestPool()
	w := p.workers[0]
	for i := 0; i < 3; i++ {
		p.breakerResult(w, true)
	}
	// Without a probe the breaker stays open — it has no other clock.
	if p.breakerAdmit(w) {
		t.Fatal("open breaker admitted without a probe")
	}
	p.breakerProbeHealthy(w)
	if got := reg.Gauge(`fleet_breaker_state{worker="a:1"}`).Value(); got != float64(breakerHalfOpen) {
		t.Fatalf("post-probe gauge = %v, want half-open (%d)", got, breakerHalfOpen)
	}
	if lines := p.breakerLines(); len(lines) != 1 || !strings.Contains(lines[0], "half-open") {
		t.Fatalf("breakerLines = %v", lines)
	}
	if !p.breakerAdmit(w) {
		t.Fatal("half-open breaker refused the trial dispatch")
	}
	if p.breakerAdmit(w) {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// Trial fails: straight back to open, counted as another open.
	if !p.breakerResult(w, true) {
		t.Fatal("failed trial did not re-open the breaker")
	}
	if got := reg.Counter("fleet_breaker_opens_total").Value(); got != 2 {
		t.Fatalf("fleet_breaker_opens_total = %d, want 2", got)
	}

	// Probe again; this time the trial succeeds and the breaker closes.
	p.breakerProbeHealthy(w)
	if !p.breakerAdmit(w) {
		t.Fatal("half-open breaker refused the second trial")
	}
	p.breakerResult(w, false)
	if got := reg.Gauge(`fleet_breaker_state{worker="a:1"}`).Value(); got != float64(breakerClosed) {
		t.Fatalf("post-success gauge = %v, want closed", got)
	}
	if !p.breakerAdmit(w) {
		t.Fatal("closed breaker refused a dispatch")
	}
	if lines := p.breakerLines(); len(lines) != 0 {
		t.Fatalf("closed breaker still reported: %v", lines)
	}
	// A probe of a closed (or half-open) breaker is a no-op, not a reset.
	p.breakerProbeHealthy(w)
	if got := reg.Gauge(`fleet_breaker_state{worker="a:1"}`).Value(); got != float64(breakerClosed) {
		t.Fatal("probe of a closed breaker changed its state")
	}
}

// TestBreakerReleaseFreesHalfOpenTrial: a half-open trial that ends without
// an outcome (a lost hedge race, a 429 shed) hands its slot back — the
// breaker stays half-open and admits the next trial instead of wedging.
func TestBreakerReleaseFreesHalfOpenTrial(t *testing.T) {
	p, reg := breakerTestPool()
	w := p.workers[0]
	for i := 0; i < 3; i++ {
		p.breakerResult(w, true)
	}
	p.breakerProbeHealthy(w)
	if !p.breakerAdmit(w) {
		t.Fatal("half-open breaker refused the trial dispatch")
	}
	p.breakerRelease(w)
	if got := reg.Gauge(`fleet_breaker_state{worker="a:1"}`).Value(); got != float64(breakerHalfOpen) {
		t.Fatalf("released trial moved the breaker to %v, want half-open", got)
	}
	if !p.breakerAdmit(w) {
		t.Fatal("released trial slot not handed to the next dispatch")
	}
}

// TestPickSkipsOpenBreaker: an open breaker makes pick shed to the next ring
// candidate exactly as an unhealthy worker would, while pickable answers the
// "anywhere to shed to?" question without consuming half-open trial slots.
func TestPickSkipsOpenBreaker(t *testing.T) {
	p, _ := breakerTestPool()
	key := "ResNet18|k1"
	own := p.owner(key)
	other := 1 - own
	for i := 0; i < 3; i++ {
		p.breakerResult(p.workers[own], true)
	}
	w, idx := p.pick(key, nil)
	if w == nil || idx != other {
		t.Fatalf("pick = %v, want the non-owner %d (owner's breaker open)", idx, other)
	}
	// Both breakers open → nothing dispatchable, and pickable agrees.
	for i := 0; i < 3; i++ {
		p.breakerResult(p.workers[other], true)
	}
	if w, _ := p.pick(key, nil); w != nil {
		t.Fatal("pick returned a worker with every breaker open")
	}
	if p.pickable(key, nil) {
		t.Fatal("pickable true with every breaker open")
	}
	// Half-open: pickable must not consume the trial slot.
	p.breakerProbeHealthy(p.workers[own])
	if !p.pickable(key, nil) || !p.pickable(key, nil) {
		t.Fatal("pickable consumed the half-open trial slot")
	}
	if w, _ := p.pick(key, nil); w == nil {
		t.Fatal("pick refused the half-open trial")
	}
	// The trial slot is now taken: pickable goes false again until a result.
	if p.pickable(key, nil) {
		t.Fatal("pickable true while the half-open trial is outstanding")
	}
}
