package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"xdse/internal/eval"
	"xdse/internal/exp"
	"xdse/internal/obs"
	"xdse/internal/workload"
)

// smallSpec is the seconds-scale job the service tests share: single worker
// so fault ordinals are deterministic, reduced budgets so a job finishes in
// about a second.
func smallSpec(technique string) JobSpec {
	return JobSpec{
		Technique: technique,
		Model:     "ResNet18",
		Budget:    12,
		MapTrials: 60,
		Seed:      1,
		Workers:   1,
	}
}

// referenceRun computes the fault-free local fingerprint the served job must
// reproduce: same knobs the daemon's jobConfig applies, no service in the
// loop.
func referenceRun(t *testing.T, spec JobSpec) exp.Run {
	t.Helper()
	tech, ok := exp.TechniqueByName(spec.Technique)
	if !ok {
		t.Fatalf("unknown technique %q", spec.Technique)
	}
	cfg := exp.Default()
	cfg.Out = io.Discard
	cfg.Seed = spec.Seed
	cfg.MapTrials = spec.MapTrials
	cfg.Workers = spec.Workers
	run := exp.RunOne(context.Background(), cfg, tech, workload.ByName(spec.Model), spec.Budget)
	if run.Err != "" || run.Interrupted {
		t.Fatalf("reference run failed: %+v", run.Err)
	}
	return run
}

// testServer boots a Server over a temp dir with its HTTP API mounted on
// httptest, returning the server, the base URL, and a cleanup-registered
// drain. A non-nil faults builds each job's fault-injection policy; it is
// set before the workers start.
func testServer(t *testing.T, opts Options, faults func(id string, spec JobSpec) *eval.FaultPolicy) (*Server, string) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	if opts.Warnf == nil {
		opts.Warnf = t.Logf
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.faults = faults
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.StartWorkers()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts.URL
}

// postJob submits a spec and returns the HTTP response with its decoded body.
func postJob(t *testing.T, base string, spec JobSpec) (*http.Response, jobFile) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jf jobFile
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &jf) //nolint:errcheck // error bodies are not jobFiles
	return resp, jf
}

// getJob fetches one job's snapshot.
func getJob(t *testing.T, base, id string) jobFile {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
	}
	var jf jobFile
	if err := json.NewDecoder(resp.Body).Decode(&jf); err != nil {
		t.Fatal(err)
	}
	return jf
}

// waitStatus polls a job until it reaches the wanted status, failing on any
// other terminal status or on timeout.
func waitStatus(t *testing.T, base, id string, want JobStatus) jobFile {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		jf := getJob(t, base, id)
		if jf.Status == want {
			return jf
		}
		if jf.Status.terminal() {
			t.Fatalf("job %s reached %q (reason %q), want %q", id, jf.Status, jf.Reason, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return jobFile{}
}

// TestServeJobLifecycle: submit over HTTP, run to completion, and check the
// result matches a local fault-free run bit-for-bit — the service adds
// queueing and persistence, never different numbers.
func TestServeJobLifecycle(t *testing.T) {
	spec := smallSpec("ExplainableDSE-FixDF")
	ref := referenceRun(t, spec)

	_, base := testServer(t, Options{}, nil)
	resp, jf := postJob(t, base, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+jf.ID {
		t.Errorf("Location = %q", loc)
	}

	done := waitStatus(t, base, jf.ID, StatusDone)
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	if done.Result.Fingerprint != ref.Trace.Fingerprint() {
		t.Errorf("served fingerprint %s != local reference %s", done.Result.Fingerprint, ref.Trace.Fingerprint())
	}
	if done.Result.Evaluations != ref.Evaluations {
		t.Errorf("served Evaluations = %d, reference %d", done.Result.Evaluations, ref.Evaluations)
	}
	if wantFeasible := ref.Trace.Best != nil; done.Result.Feasible != wantFeasible {
		t.Errorf("served Feasible = %v, reference %v", done.Result.Feasible, wantFeasible)
	}

	// The listing includes the job.
	lresp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []jobFile
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != jf.ID {
		t.Errorf("list = %+v", list)
	}
}

// TestServeEndpointsHealthAndMetrics: liveness and readiness answer, and
// /metrics serves a self-consistent Prometheus dump holding both service
// counters and the completed run's evaluator counters.
func TestServeEndpointsHealthAndMetrics(t *testing.T) {
	_, base := testServer(t, Options{}, nil)
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}

	_, jf := postJob(t, base, smallSpec("SimulatedAnnealing-FixDF"))
	waitStatus(t, base, jf.ID, StatusDone)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", resp.StatusCode, data)
	}
	dump := string(data)
	if err := obs.ValidatePrometheus(dump); err != nil {
		t.Errorf("metrics dump malformed: %v", err)
	}
	for _, want := range []string{
		"serve_jobs_submitted_total 1",
		"serve_jobs_completed_total 1",
		"eval_design_evaluations_total",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// TestServeSubmitValidation: malformed and invalid specs are rejected with
// 400 before touching the queue.
func TestServeSubmitValidation(t *testing.T) {
	_, base := testServer(t, Options{}, nil)
	cases := []struct {
		name string
		body string
	}{
		{"unknown technique", `{"technique":"NoSuchSearch","model":"ResNet18"}`},
		{"unknown model", `{"technique":"ExplainableDSE-FixDF","model":"NoSuchNet"}`},
		{"negative budget", `{"technique":"ExplainableDSE-FixDF","model":"ResNet18","budget":-1}`},
		{"unknown field", `{"technique":"ExplainableDSE-FixDF","model":"ResNet18","bogus":1}`},
		{"not json", `??`},
	}
	for _, tc := range cases {
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if resp, err := http.Get(base + "/jobs/nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
		}
	}
}

// TestServeLoadShedding: with the only worker pinned inside a job and the
// queue full, a further submission is shed with 429 + Retry-After — and the
// shed request degrades neither the running job nor the queued one, which
// both still finish with reference-identical results.
func TestServeLoadShedding(t *testing.T) {
	spec := smallSpec("ExplainableDSE-FixDF")
	ref := referenceRun(t, spec)

	reached := make(chan string, 4)
	release := make(chan struct{})
	s, base := testServer(t, Options{QueueCap: 1, MaxConcurrent: 1}, func(id string, _ JobSpec) *eval.FaultPolicy {
		return &eval.FaultPolicy{OnEvaluation: func(ord int) {
			if ord == 0 {
				reached <- id
				<-release
			}
		}}
	})
	defer close(release)

	// Job 1 is popped by the lone worker and parks at its first evaluation.
	resp1, j1 := postJob(t, base, spec)
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("submit 1 = %d", resp1.StatusCode)
	}
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job 1 never started evaluating")
	}

	// Job 2 fills the queue; job 3 must be shed.
	resp2, j2 := postJob(t, base, spec)
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("submit 2 = %d", resp2.StatusCode)
	}
	resp3, _ := postJob(t, base, spec)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("shed response carries no Retry-After")
	}
	if got := s.cShed.Value(); got != 1 {
		t.Errorf("serve_jobs_shed_total = %d, want 1", got)
	}

	// Unblock: both admitted jobs must finish unharmed by the shed request.
	release <- struct{}{}
	release <- struct{}{}
	for _, id := range []string{j1.ID, j2.ID} {
		done := waitStatus(t, base, id, StatusDone)
		if done.Result.Fingerprint != ref.Trace.Fingerprint() {
			t.Errorf("job %s fingerprint diverged after shedding", id)
		}
	}
	// The shed job left no directory to resurrect at next boot.
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("job dir holds %d entries after shedding, want 2", len(entries))
	}
}

// TestServeCancel: a running job cancels at its next batch boundary; cancel
// of a finished job is 409, of an unknown one 404.
func TestServeCancel(t *testing.T) {
	reached := make(chan string, 1)
	release := make(chan struct{})
	_, base := testServer(t, Options{}, func(id string, _ JobSpec) *eval.FaultPolicy {
		return &eval.FaultPolicy{OnEvaluation: func(ord int) {
			if ord == 2 {
				reached <- id
				<-release
			}
		}}
	})
	defer close(release)

	_, jf := postJob(t, base, smallSpec("ExplainableDSE-FixDF"))
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached evaluation 2")
	}
	resp, err := http.Post(base+"/jobs/"+jf.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	release <- struct{}{}
	got := waitStatus(t, base, jf.ID, StatusCancelled)
	if got.Result != nil {
		t.Errorf("cancelled job carries a result: %+v", got.Result)
	}

	resp, _ = http.Post(base+"/jobs/"+jf.ID+"/cancel", "application/json", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of terminal job = %d, want 409", resp.StatusCode)
	}
	resp, _ = http.Post(base+"/jobs/nope/cancel", "application/json", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestServeDeadline: a job whose wall-clock deadline expires stops at the
// next batch boundary with status "deadline", not a hung worker.
func TestServeDeadline(t *testing.T) {
	_, base := testServer(t, Options{}, func(string, JobSpec) *eval.FaultPolicy {
		// Every first attempt of evaluation 1 sleeps far past the
		// deadline; the sleep is context-cancellable, so the deadline
		// fires promptly.
		return &eval.FaultPolicy{DelayAt: []int{1}, Delay: time.Hour}
	})
	spec := smallSpec("ExplainableDSE-FixDF")
	spec.DeadlineMs = 300
	_, jf := postJob(t, base, spec)
	got := waitStatus(t, base, jf.ID, StatusDeadline)
	if !strings.Contains(got.Reason, "deadline") {
		t.Errorf("reason = %q", got.Reason)
	}
}

// TestServeChaosFingerprintIdentical is the chaos acceptance gate: a job
// served under injected panics, transient errors, and watchdog timeouts —
// all healed by the retry layer — reports the exact fingerprint of a
// fault-free local run.
func TestServeChaosFingerprintIdentical(t *testing.T) {
	spec := smallSpec("ExplainableDSE-FixDF")
	ref := referenceRun(t, spec)

	s, base := testServer(t, Options{
		EvalTimeout: time.Second,
		Retry:       eval.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
	}, func(string, JobSpec) *eval.FaultPolicy {
		return &eval.FaultPolicy{
			PanicAt:    []int{1},
			FailFirstN: map[int]int{2: 2},
			SlowFirstN: map[int]int{4: 1},
			Delay:      5 * time.Second,
		}
	})
	_, jf := postJob(t, base, spec)
	done := waitStatus(t, base, jf.ID, StatusDone)
	if done.Result.Fingerprint != ref.Trace.Fingerprint() {
		t.Errorf("chaos-served fingerprint %s != fault-free reference %s",
			done.Result.Fingerprint, ref.Trace.Fingerprint())
	}
	if done.Result.Retries == 0 {
		t.Error("chaos run reports no retries — faults not exercised")
	}
	if done.Result.Evaluations != ref.Evaluations {
		t.Errorf("chaos Evaluations = %d, reference %d", done.Result.Evaluations, ref.Evaluations)
	}

	// The healed faults are visible in the merged metrics.
	var b strings.Builder
	if err := s.mergedMetrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"eval_retries_total", "eval_transient_faults_total", "eval_panics_recovered_total"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobSpecDeadlineResolution covers the deadline fallback chain.
func TestJobSpecDeadlineResolution(t *testing.T) {
	if d := (JobSpec{DeadlineMs: 1500}).deadline(time.Minute); d != 1500*time.Millisecond {
		t.Errorf("explicit deadline = %v", d)
	}
	if d := (JobSpec{}).deadline(time.Minute); d != time.Minute {
		t.Errorf("default deadline = %v", d)
	}
	if d := (JobSpec{}).deadline(0); d != 0 {
		t.Errorf("unbounded deadline = %v", d)
	}
}

// TestOptionsDirRequired: New without a job directory is an error, not a
// daemon scribbling into the working directory.
func TestOptionsDirRequired(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted empty Options.Dir")
	}
}
