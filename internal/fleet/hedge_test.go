package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"xdse/internal/perf"
)

// fakeWorker mounts a minimal fleet worker: a /readyz that passes the
// membership handshake at this build's perf.ModelVersion() and the given
// /eval handler.
func fakeWorker(t *testing.T, eval http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ready","model_version":%q}`, perf.ModelVersion())
	})
	mux.HandleFunc("POST /eval", eval)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// okEval answers one shard with an empty (but valid) record set: a header
// line that counts no record lines.
func okEval(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintf(w, "{\"model_version\":%q,\"evaluated\":1,\"records\":0}\n", perf.ModelVersion())
}

// hedgeTestOptions: fast probes, hedging tuned per test. The attempt
// deadline and retry policy are the production ones unless a test shortens
// them on the coordinator it built.
func hedgeTestOptions() Options {
	return Options{
		HealthInterval: 10 * time.Millisecond,
		Warnf:          func(string, ...any) {},
	}
}

var testBase = EvalRequest{Protocol: ProtocolVersion, ModelVersion: perf.ModelVersion(), Model: "m", Mode: "test", Points: nil}

// TestHedgeRescuesStraggler: the first dispatch anywhere blocks; after
// HedgeAfter the coordinator launches one hedge to the other worker, whose
// prompt answer wins, and the straggler is cancelled so its eventual answer
// can never merge.
func TestHedgeRescuesStraggler(t *testing.T) {
	var first atomic.Bool
	handler := func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			// Drain the body first: the server only notices the client's
			// abort (and cancels r.Context()) once the request is read.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done() // straggle until the race is decided against us
			return
		}
		okEval(w, r)
	}
	tsA := fakeWorker(t, handler)
	tsB := fakeWorker(t, handler)
	opts := hedgeTestOptions()
	opts.HedgeAfter = 20 * time.Millisecond
	c, err := New([]string{tsA.Listener.Addr().String(), tsB.Listener.Addr().String()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.runShard(context.Background(), testBase, shard{key: "m|p1", points: []string{"p1"}})

	m := c.Metrics()
	if got := m.Counter("fleet_hedges_total").Value(); got != 1 {
		t.Fatalf("fleet_hedges_total = %d, want 1", got)
	}
	if got := m.Counter("fleet_hedge_wins_total").Value(); got != 1 {
		t.Fatalf("fleet_hedge_wins_total = %d, want 1", got)
	}
	if got := m.Counter("fleet_shards_local_total").Value(); got != 0 {
		t.Fatalf("shard fell back local despite a winning hedge (local=%d)", got)
	}
	// The loser lost to our own cancellation, not to its own health: no
	// worker fault may be charged, in the counters or in its health.
	for _, w := range c.pool.workers {
		if got := c.workerCounter("fleet_worker_faults_total", w.id).Value(); got != 0 {
			t.Fatalf("hedge race charged worker %s %d faults", w.id, got)
		}
		if got := w.faults.Load(); got != 0 {
			t.Fatalf("hedge race left worker %s a dispatch fault count of %d", w.id, got)
		}
	}
}

// TestHedgeNoCandidateFallsThrough: with a single worker there is nowhere to
// hedge to; the timer fires, finds no candidate, and the primary completes
// normally.
func TestHedgeNoCandidateFallsThrough(t *testing.T) {
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		okEval(w, r)
	})
	opts := hedgeTestOptions()
	opts.HedgeAfter = 10 * time.Millisecond
	c, err := New([]string{ts.Listener.Addr().String()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.runShard(context.Background(), testBase, shard{key: "m|p1", points: []string{"p1"}})

	m := c.Metrics()
	if got := m.Counter("fleet_hedges_total").Value(); got != 0 {
		t.Fatalf("fleet_hedges_total = %d, want 0 (no candidate)", got)
	}
	if got := m.Counter("fleet_shards_local_total").Value(); got != 0 {
		t.Fatalf("shard fell back local (local=%d)", got)
	}
}

// TestDispatchLateResultDiscarded: a worker that answers only after the
// attempt's maxShardHold deadline has its perfectly valid response
// discarded — the attempt fails as a transient timeout with no records.
func TestDispatchLateResultDiscarded(t *testing.T) {
	release := make(chan struct{})
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-release
		okEval(w, r)
	})
	c, err := New([]string{ts.Listener.Addr().String()}, hedgeTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.maxShardHold = 50 * time.Millisecond

	recs, derr := c.dispatch(context.Background(), testBase, shard{key: "m|p1", points: []string{"p1"}}, c.pool.workers[0])
	close(release) // the worker answers now, after the deadline
	if derr == nil || derr.kind != faultTransient || !errors.Is(derr, context.DeadlineExceeded) {
		t.Fatalf("dispatch err = %v, want a transient deadline fault", derr)
	}
	if recs != nil {
		t.Fatal("timed-out attempt still returned records")
	}
}

// TestHungWorkerBoundedByMaxShardHold: a worker that accepts /eval and never
// answers costs each attempt at most maxShardHold; runShard then falls back
// to local evaluation instead of waiting on it.
func TestHungWorkerBoundedByMaxShardHold(t *testing.T) {
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // hang until the coordinator gives up
	})
	opts := hedgeTestOptions()
	opts.HedgeAfter = -1
	c, err := New([]string{ts.Listener.Addr().String()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.maxShardHold = 50 * time.Millisecond
	c.retry.MaxAttempts = 2

	start := time.Now()
	recs := c.runShard(context.Background(), testBase, shard{key: "m|p1", points: []string{"p1"}})
	elapsed := time.Since(start)
	if recs != nil {
		t.Fatal("hung worker produced records")
	}
	// Two attempts at 50ms plus one 50ms backoff; the slack absorbs the race
	// detector and a loaded host, not another attempt's worth of hanging.
	if elapsed < 2*c.maxShardHold || elapsed > 5*time.Second {
		t.Fatalf("runShard took %v, want about 2×%v", elapsed, c.maxShardHold)
	}
	if got := c.Metrics().Counter("fleet_shards_local_total").Value(); got != 1 {
		t.Fatalf("fleet_shards_local_total = %d, want 1 (local fallback)", got)
	}
}

// TestShedIsBackpressureNotFault: a worker answering 429 is shedding load.
// Each shard moves to the next healthy worker, but the shedder is charged no
// fault: dispatchFaultLimit sheds in a row leave it healthy. The monitor
// probes only at start, so only a dispatch could change its health.
func TestShedIsBackpressureNotFault(t *testing.T) {
	shedder := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "saturated", http.StatusTooManyRequests)
	})
	good := fakeWorker(t, okEval)
	opts := hedgeTestOptions()
	opts.HedgeAfter = -1
	opts.HealthInterval = time.Hour
	shedAddr := shedder.Listener.Addr().String()
	c, err := New([]string{shedAddr, good.Listener.Addr().String()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < dispatchFaultLimit; i++ {
		// Dealt to worker 0, the shedder.
		c.runShard(context.Background(), testBase, shard{key: "m|p", first: 0, points: []string{"p"}})
	}

	m := c.Metrics()
	if got := c.workerCounter("fleet_worker_shed_total", shedAddr).Value(); got != dispatchFaultLimit {
		t.Fatalf("fleet_worker_shed_total = %d, want %d", got, dispatchFaultLimit)
	}
	if got := c.workerCounter("fleet_worker_faults_total", shedAddr).Value(); got != 0 {
		t.Fatalf("429 charged %d worker faults, want 0", got)
	}
	for _, w := range c.pool.workers {
		if !w.healthy() {
			t.Fatalf("worker %s left %v by 429s, want healthy", w.id, w.get())
		}
	}
	if got := m.Counter("fleet_leases_stolen_total").Value(); got != dispatchFaultLimit {
		t.Fatalf("fleet_leases_stolen_total = %d, want %d (each shard re-dispatched to the good worker)", got, dispatchFaultLimit)
	}
	if got := m.Counter("fleet_shards_local_total").Value(); got != 0 {
		t.Fatalf("shard fell back local (local=%d)", got)
	}
}

// TestStealSkipsBackoff: a transient fault re-dispatches at once to an
// untried healthy worker; the backoff schedule runs only before a second
// pass over workers already tried.
func TestStealSkipsBackoff(t *testing.T) {
	bad := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})
	good := fakeWorker(t, okEval)
	opts := hedgeTestOptions()
	opts.HedgeAfter = -1 // isolate the steal path
	c, err := New([]string{bad.Listener.Addr().String(), good.Listener.Addr().String()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A taken backoff would hang the test loudly.
	c.retry.Backoff, c.retry.BackoffCap = time.Hour, time.Hour

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Dealt to worker 0, the failing one.
		c.runShard(context.Background(), testBase, shard{key: "m|p", first: 0, points: []string{"p"}})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("runShard hung — the steal to an untried worker waited out the hour-long backoff")
	}

	m := c.Metrics()
	if got := m.Counter("fleet_leases_stolen_total").Value(); got != 1 {
		t.Fatalf("fleet_leases_stolen_total = %d, want 1 (re-dispatch to the good worker)", got)
	}
	if got := m.Counter("fleet_shards_local_total").Value(); got != 0 {
		t.Fatalf("shard fell back local (local=%d)", got)
	}
}
