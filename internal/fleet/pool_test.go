package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xdse/internal/obs"
)

func TestRingOwnerDeterministicAndLocal(t *testing.T) {
	reg := obs.NewRegistry()
	addrs := []string{"a:1", "b:2", "c:3"}
	p1 := newPool(addrs, "v", time.Second, nil, reg, nil)
	p2 := newPool(addrs, "v", time.Second, nil, obs.NewRegistry(), nil)
	keys := []string{"ResNet18|k1", "ResNet18|k2", "BERT|k1", "x|y", "m|n"}
	spread := map[int]bool{}
	for _, k := range keys {
		if p1.owner(k) != p2.owner(k) {
			t.Fatalf("ring owner for %q differs between identical pools", k)
		}
		spread[p1.owner(k)] = true
	}
	if len(spread) < 2 {
		t.Fatalf("all %d keys landed on one worker — ring not spreading", len(keys))
	}
}

func TestPickPrefersOwnerAndFailsOver(t *testing.T) {
	reg := obs.NewRegistry()
	addrs := []string{"a:1", "b:2", "c:3"}
	p := newPool(addrs, "v", time.Second, nil, reg, nil)
	for _, w := range p.workers {
		w.setState(workerHealthy)
	}
	key := "ResNet18|k1"
	own := p.owner(key)
	w, idx := p.pick(key, nil)
	if w == nil || idx != own {
		t.Fatalf("pick over a fully healthy pool chose %v, want owner %d", idx, own)
	}
	// Owner down: pick must fail over to a different healthy worker,
	// deterministically.
	p.workers[own].setState(workerUnreachable)
	w2, idx2 := p.pick(key, nil)
	if w2 == nil || idx2 == own {
		t.Fatalf("pick did not fail over from the down owner (got %v)", idx2)
	}
	_, idx3 := p.pick(key, nil)
	if idx3 != idx2 {
		t.Fatalf("failover not deterministic: %d then %d", idx2, idx3)
	}
	// Excluding the failover target too leaves exactly one candidate.
	w4, idx4 := p.pick(key, map[int]bool{idx2: true})
	if w4 == nil || idx4 == idx2 || idx4 == own {
		t.Fatalf("pick with exclusion chose %v", idx4)
	}
	// Everything excluded or down: nil.
	if w5, _ := p.pick(key, map[int]bool{0: true, 1: true, 2: true}); w5 != nil {
		t.Fatal("pick returned a worker despite all being excluded")
	}
	_ = w
	_ = w2
}

func TestQuarantinedWorkerNeverPicked(t *testing.T) {
	p := newPool([]string{"a:1", "b:2"}, "v", time.Second, nil, obs.NewRegistry(), nil)
	p.workers[0].setState(workerQuarantined)
	p.workers[1].setState(workerHealthy)
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5"} {
		w, idx := p.pick(key, nil)
		if w == nil || idx != 1 {
			t.Fatalf("pick(%q) = %v, want the sole healthy worker 1", key, idx)
		}
	}
}

// faultTestPool builds a two-worker pool whose members both answer readyz
// as ready at the pool's version, marks them healthy and runs no monitor, so
// health changes only where a test feeds dispatch outcomes or probes.
func faultTestPool(t *testing.T) (*pool, *obs.Registry) {
	t.Helper()
	addrs := make([]string, 2)
	for i := range addrs {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"status":"ready","model_version":"v"}`)
		}))
		t.Cleanup(ts.Close)
		addrs[i] = ts.Listener.Addr().String()
	}
	reg := obs.NewRegistry()
	p := newPool(addrs, "v", time.Second, &http.Client{}, reg, nil)
	for _, w := range p.workers {
		w.setState(workerHealthy)
	}
	return p, reg
}

var errTransient = errors.New("status 503")

func faultN(p *pool, w *worker, n int) {
	for i := 0; i < n; i++ {
		p.dispatched(w, errTransient)
	}
}

// TestBreakerOpensAfterConsecutiveTransients: dispatchFaultLimit transient
// dispatch faults in a row mark a worker unreachable; fewer leave it
// healthy, and 429 sheds and permanent faults never count.
func TestBreakerOpensAfterConsecutiveTransients(t *testing.T) {
	p, reg := faultTestPool(t)
	w := p.workers[0]
	faultN(p, w, dispatchFaultLimit-1)
	if !w.healthy() {
		t.Fatalf("%d faults marked the worker %v, limit is %d", dispatchFaultLimit-1, w.get(), dispatchFaultLimit)
	}
	faultN(p, w, 1)
	if w.get() != workerUnreachable {
		t.Fatalf("fault %d in a row left the worker %v, want unreachable", dispatchFaultLimit, w.get())
	}
	if got := reg.Gauge("fleet_workers_healthy").Value(); got != 1 {
		t.Fatalf("fleet_workers_healthy = %v, want 1", got)
	}
	if got := reg.Counter("fleet_worker_transitions_total").Value(); got != 1 {
		t.Fatalf("fleet_worker_transitions_total = %d, want 1", got)
	}

	q := p.workers[1]
	shed := &shedError{&retryAfterError{err: errTransient, hint: time.Second}}
	permanent := &permanentError{errors.New("status 400")}
	for i := 0; i < dispatchFaultLimit; i++ {
		p.dispatched(q, shed)
		p.dispatched(q, permanent)
	}
	if !q.healthy() || q.faults.Load() != 0 {
		t.Fatalf("429s and permanent faults counted: state %v, %d faults", q.get(), q.faults.Load())
	}

	q.setState(workerQuarantined)
	faultN(p, q, dispatchFaultLimit)
	if q.get() != workerQuarantined {
		t.Fatalf("dispatch faults moved a quarantined worker to %v", q.get())
	}
}

// TestBreakerSuccessResetsConsecutiveCount: a successful dispatch resets the
// run, so only faults in a row mark the worker.
func TestBreakerSuccessResetsConsecutiveCount(t *testing.T) {
	p, _ := faultTestPool(t)
	w := p.workers[0]
	faultN(p, w, dispatchFaultLimit-1)
	p.dispatched(w, nil)
	faultN(p, w, dispatchFaultLimit-1)
	if !w.healthy() {
		t.Fatalf("%d faults split by a success marked the worker %v", 2*(dispatchFaultLimit-1), w.get())
	}
	faultN(p, w, 1)
	if w.get() != workerUnreachable {
		t.Fatal("the limit-th fault in a row after the reset did not mark the worker")
	}
}

// TestBreakerHalfOpenSingleTrial: only a good readyz probe restores a
// worker marked by dispatch faults. The probe leaves the fault count alone,
// so the restored worker's next fault marks it again at once; a success
// after the restore resets the count as usual.
func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	p, reg := faultTestPool(t)
	w := p.workers[0]
	faultN(p, w, dispatchFaultLimit)
	if w.get() != workerUnreachable {
		t.Fatalf("worker %v after %d faults, want unreachable", w.get(), dispatchFaultLimit)
	}
	p.probe(w)
	if !w.healthy() {
		t.Fatalf("good probe left the worker %v", w.get())
	}
	faultN(p, w, 1)
	if w.get() != workerUnreachable {
		t.Fatal("a restored worker's next fault did not mark it again")
	}
	if got := reg.Counter("fleet_worker_transitions_total").Value(); got != 3 {
		t.Fatalf("fleet_worker_transitions_total = %d, want 3 (mark, restore, mark)", got)
	}

	p.probe(w)
	p.dispatched(w, nil)
	faultN(p, w, dispatchFaultLimit-1)
	if !w.healthy() {
		t.Fatal("a success after the restore did not reset the fault count")
	}
}

// TestPickSkipsOpenBreaker: a worker marked unreachable by dispatch faults
// is skipped by pick exactly as a probed-down one is, until a good probe
// restores it.
func TestPickSkipsOpenBreaker(t *testing.T) {
	p, _ := faultTestPool(t)
	key := "ResNet18|k1"
	own := p.owner(key)
	other := 1 - own
	faultN(p, p.workers[own], dispatchFaultLimit)
	if w, idx := p.pick(key, nil); w == nil || idx != other {
		t.Fatalf("pick = %v, want the non-owner %d (owner marked unreachable)", idx, other)
	}
	faultN(p, p.workers[other], dispatchFaultLimit)
	if w, _ := p.pick(key, nil); w != nil {
		t.Fatal("pick returned a worker with every worker marked unreachable")
	}
	p.probe(p.workers[own])
	if w, idx := p.pick(key, nil); w == nil || idx != own {
		t.Fatalf("pick after a good probe = %v, want the restored owner %d", idx, own)
	}
}
