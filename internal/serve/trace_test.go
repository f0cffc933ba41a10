package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"xdse/internal/fleet"
	"xdse/internal/obs"
)

// postEvalTraced POSTs one shard request carrying coordinator trace context.
func postEvalTraced(t *testing.T, base string, req fleet.EvalRequest, sc obs.SpanContext) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/eval", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(sc))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEvalEndpointTracedSpans pins the worker half of the cross-process
// merge: a traced /eval returns queue, per-point worker-eval, and
// record-export spans, all parented under the coordinator's rpc span with
// rpc-prefixed IDs — while an untraced request returns none and takes the
// identical evaluation path.
func TestEvalEndpointTracedSpans(t *testing.T) {
	s, base := testServer(t, Options{CacheDir: t.TempDir()}, nil)
	sc := obs.SpanContext{Trace: "Tech_Model", Span: "7"}
	resp := postEvalTraced(t, base, evalReq(2), sc)
	defer resp.Body.Close()
	out, recs := readEvalBody(t, resp)
	if out.Evaluated != 2 || len(recs) == 0 {
		t.Fatalf("traced eval changed behavior: evaluated=%d records=%d", out.Evaluated, len(recs))
	}
	if len(out.Spans) == 0 {
		t.Fatal("traced eval returned no spans")
	}
	kinds := map[string]int{}
	for _, ev := range out.Spans {
		if ev.Kind != obs.KindSpan {
			t.Fatalf("non-span event in response: %+v", ev)
		}
		if ev.Trace != sc.Trace {
			t.Errorf("span %q trace = %q, want %q", ev.Span, ev.Trace, sc.Trace)
		}
		if ev.Parent != sc.Span {
			t.Errorf("span %q parented to %q, want the rpc span %q", ev.Span, ev.Parent, sc.Span)
		}
		if !strings.HasPrefix(ev.Span, sc.Span+".") {
			t.Errorf("span ID %q lacks the rpc prefix %q", ev.Span, sc.Span+".")
		}
		kinds[ev.SpanKind]++
	}
	if kinds[obs.SpanQueue] != 1 {
		t.Errorf("queue spans = %d, want 1", kinds[obs.SpanQueue])
	}
	if kinds[obs.SpanWorkerEval] != out.Evaluated {
		t.Errorf("worker-eval spans = %d, want %d (one per point)", kinds[obs.SpanWorkerEval], out.Evaluated)
	}
	if kinds[obs.SpanCache] != 1 {
		t.Errorf("export spans = %d, want 1", kinds[obs.SpanCache])
	}

	// The request-level queue-wait histogram observed the admission.
	if s.hEvalWait.Count() == 0 {
		t.Error("serve_eval_queue_wait_seconds recorded nothing")
	}

	// Untraced request: same path, no spans.
	plain := postEval(t, base, evalReq(2))
	defer plain.Body.Close()
	pout, _ := readEvalBody(t, plain)
	if len(pout.Spans) != 0 {
		t.Fatalf("untraced eval returned %d spans, want 0", len(pout.Spans))
	}
}

// TestJobQueueWaitHistogram pins the enqueue→start latency instrument: a job
// that runs must contribute one observation to serve_job_queue_wait_seconds.
func TestJobQueueWaitHistogram(t *testing.T) {
	s, base := testServer(t, Options{}, nil)
	resp, jf := postJob(t, base, smallSpec("GridSearch-FixDF"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	waitStatus(t, base, jf.ID, StatusDone)
	if s.hJobWait.Count() == 0 {
		t.Error("serve_job_queue_wait_seconds recorded nothing after a completed job")
	}
	// And the instrument reaches /metrics.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	dump, _ := io.ReadAll(mresp.Body)
	for _, name := range []string{"serve_job_queue_wait_seconds", "serve_eval_queue_wait_seconds"} {
		if !strings.Contains(string(dump), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestDebugSurfaceGated pins the profiling surface's gate: with
// Options.Debug the pprof index and /debug/vars serve; without it, the
// daemon exposes nothing under /debug.
func TestDebugSurfaceGated(t *testing.T) {
	_, debugBase := testServer(t, Options{Debug: true}, nil)
	resp, err := http.Get(debugBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug daemon /debug/pprof/ status %d, want 200", resp.StatusCode)
	}
	vresp, err := http.Get(debugBase + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["xdse_metrics"]; !ok {
		t.Error("/debug/vars missing the merged metrics registry")
	}

	_, plainBase := testServer(t, Options{}, nil)
	off, err := http.Get(plainBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	off.Body.Close()
	if off.StatusCode != http.StatusNotFound {
		t.Errorf("undebugged daemon /debug/pprof/ status %d, want 404", off.StatusCode)
	}
}

// TestRuntimeSamplerFeedsMetrics checks the periodic sampler folds runtime
// gauges into /metrics, and that a negative interval disables it.
func TestRuntimeSamplerFeedsMetrics(t *testing.T) {
	s, base := testServer(t, Options{RuntimeSample: time.Millisecond}, nil)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.reg.Gauge("runtime_goroutines").Value() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dump, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(dump), "runtime_goroutines") {
		t.Error("/metrics missing runtime_goroutines")
	}
	if s.reg.Gauge("runtime_goroutines").Value() <= 0 {
		t.Error("runtime sampler never sampled")
	}

	off, err := New(Options{Dir: t.TempDir(), RuntimeSample: -1, Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if off.sampler != nil {
		t.Error("negative RuntimeSample must disable the sampler")
	}
}
