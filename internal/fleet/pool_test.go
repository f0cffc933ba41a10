package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xdse/internal/arch"
	"xdse/internal/obs"
)

// TestPickPrefersFirstAndFailsOver: pick returns the dealt worker while it
// is healthy and untried, and otherwise the next such worker in list order,
// wrapping around.
func TestPickPrefersFirstAndFailsOver(t *testing.T) {
	p := newPool([]string{"a:1", "b:2", "c:3"}, "v", time.Second, nil, obs.NewRegistry(), nil)
	for _, w := range p.workers {
		w.setState(workerHealthy)
	}
	for first := range p.workers {
		if w, idx := p.pick(first, nil); w == nil || idx != first {
			t.Fatalf("pick(%d) over a fully healthy pool chose %d", first, idx)
		}
	}
	p.workers[2].setState(workerUnreachable)
	if _, idx := p.pick(2, nil); idx != 0 {
		t.Fatalf("pick(2) with worker 2 down chose %d, want 0 (the walk wraps)", idx)
	}
	if _, idx := p.pick(2, map[int]bool{0: true}); idx != 1 {
		t.Fatalf("pick(2) with worker 2 down and 0 tried chose %d, want 1", idx)
	}
	if w, idx := p.pick(0, map[int]bool{0: true, 1: true}); w != nil {
		t.Fatalf("pick chose worker %d with every healthy worker tried", idx)
	}
}

func TestQuarantinedWorkerNeverPicked(t *testing.T) {
	p := newPool([]string{"a:1", "b:2"}, "v", time.Second, nil, obs.NewRegistry(), nil)
	p.workers[0].setState(workerQuarantined)
	p.workers[1].setState(workerHealthy)
	for i := 0; i < 4; i++ {
		if first := p.deal(); first != 1 {
			t.Fatalf("deal %d chose %d, want the sole healthy worker 1", i, first)
		}
		if w, idx := p.pick(i%2, nil); w == nil || idx != 1 {
			t.Fatalf("pick(%d) = %v, want the sole healthy worker 1", i%2, idx)
		}
	}
}

// TestShardDealsRoundRobin: k fresh points are dealt into min(k, max(h,
// ⌈k/8⌉)) shards over the h healthy workers, each point exactly once, with
// shard sizes within one of each other and at most shardPoints. Shards are
// dealt to healthy workers only, alternating across consecutive calls.
func TestShardDealsRoundRobin(t *testing.T) {
	p := newPool([]string{"a:1", "b:2", "c:3"}, "v", time.Second, nil, obs.NewRegistry(), nil)
	p.workers[0].setState(workerHealthy)
	p.workers[1].setState(workerUnreachable)
	p.workers[2].setState(workerHealthy)
	c := &Coordinator{pool: p}
	prev := -1
	for _, k := range []int{1, 2, 3, 5, 8, 9, 17, 40} {
		keys := make([]string, k)
		for i := range keys {
			keys[i] = arch.Point{i}.Key()
		}
		shards := c.shard("m", keys)
		if want := min(k, max(2, (k+7)/8)); len(shards) != want {
			t.Fatalf("k=%d: %d shards, want %d", k, len(shards), want)
		}
		seen := map[string]int{}
		lo, hi := k, 0
		for _, sh := range shards {
			lo, hi = min(lo, len(sh.points)), max(hi, len(sh.points))
			for _, key := range sh.points {
				seen[key]++
			}
			if !p.workers[sh.first].healthy() {
				t.Fatalf("k=%d: shard dealt to unhealthy worker %d", k, sh.first)
			}
			if sh.first == prev {
				t.Fatalf("k=%d: consecutive shards both dealt to worker %d", k, prev)
			}
			prev = sh.first
		}
		if hi-lo > 1 || hi > shardPoints {
			t.Fatalf("k=%d: shard sizes span [%d, %d], want within one and at most %d", k, lo, hi, shardPoints)
		}
		for _, key := range keys {
			if n := seen[key]; n != 1 {
				t.Fatalf("k=%d: point %s dealt %d times, want once", k, key, n)
			}
		}
		if len(seen) != k {
			t.Fatalf("k=%d: %d distinct points dealt, want %d", k, len(seen), k)
		}
	}
	p.workers[0].setState(workerUnreachable)
	p.workers[2].setState(workerQuarantined)
	if shards := c.shard("m", []string{arch.Point{0}.Key()}); shards != nil {
		t.Fatalf("shard with no healthy worker = %v, want nil", shards)
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

func faultN(p *pool, w *worker, n int) {
	for i := 0; i < n; i++ {
		p.dispatched(w, failed(faultTransient, "status 503"))
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
	shed := failed(faultShed, "status 429")
	shed.hint = time.Second
	permanent := failed(faultPermanent, "status 400")
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
	faultN(p, p.workers[0], dispatchFaultLimit)
	if w, idx := p.pick(0, nil); w == nil || idx != 1 {
		t.Fatalf("pick(0) = %v, want worker 1 (worker 0 marked unreachable)", idx)
	}
	faultN(p, p.workers[1], dispatchFaultLimit)
	if w, _ := p.pick(0, nil); w != nil {
		t.Fatal("pick returned a worker with every worker marked unreachable")
	}
	p.probe(p.workers[0])
	if w, idx := p.pick(0, nil); w == nil || idx != 0 {
		t.Fatalf("pick after a good probe = %v, want the restored worker 0", idx)
	}
}
