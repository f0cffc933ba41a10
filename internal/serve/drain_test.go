package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xdse/internal/eval"
)

// TestDrainAndResumeFingerprintIdentical is the graceful-shutdown
// acceptance gate, proven for all three mapper modes: a drain caught with
// jobs mid-run checkpoints every one of them, flips /readyz to 503, and a
// fresh daemon booted over the same directory resumes each job to a result
// bit-identical to an uninterrupted run's.
func TestDrainAndResumeFingerprintIdentical(t *testing.T) {
	// One technique per mapper mode: fixed-dataflow, random-mapping
	// codesign, and pruned-mapping codesign.
	specs := []JobSpec{
		smallSpec("ExplainableDSE-FixDF"),
		smallSpec("RandomSearch-Codesign"),
		smallSpec("ExplainableDSE-Codesign"),
	}
	refFP := make(map[string]string, len(specs))
	for _, spec := range specs {
		refFP[spec.Technique] = referenceRun(t, spec).Trace.Fingerprint()
	}

	dir := t.TempDir()
	reached := make(chan string, len(specs))
	release := make(chan struct{})
	gate := Options{
		Dir:           dir,
		MaxConcurrent: len(specs), // all jobs in flight at once
		Warnf:         t.Logf,
	}
	s, err := New(gate)
	if err != nil {
		t.Fatal(err)
	}
	s.faults = func(id string, _ JobSpec) *eval.FaultPolicy {
		return &eval.FaultPolicy{OnEvaluation: func(ord int) {
			if ord == 3 {
				reached <- id
				<-release
			}
		}}
	}
	ts := httptest.NewServer(s.Handler())
	s.StartWorkers()

	ids := make(map[string]string, len(specs)) // technique -> job id
	for _, spec := range specs {
		resp, jf := postJob(t, ts.URL, spec)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s = %d", spec.Technique, resp.StatusCode)
		}
		ids[spec.Technique] = jf.ID
	}
	for range specs {
		select {
		case <-reached:
		case <-time.After(time.Minute):
			t.Fatal("jobs never reached the gate evaluation")
		}
	}

	// Drain with every job parked mid-evaluation. Drain blocks until the
	// jobs stop, so run it concurrently and watch readiness flip first.
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	waitReadyz(t, ts.URL, http.StatusServiceUnavailable)

	// A submission during drain is refused with 503 + Retry-After.
	resp, _ := postJob(t, ts.URL, specs[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining response carries no Retry-After")
	}

	close(release) // jobs resume, observe the cancelled context, checkpoint
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	// Every job persisted as interrupted (non-terminal, resumable).
	for tech, id := range ids {
		j, err := loadJob(filepath.Join(dir, id), t.Logf)
		if err != nil {
			t.Fatalf("%s: %v", tech, err)
		}
		if j.Status() != StatusInterrupted {
			t.Errorf("%s: drained job persisted as %q, want interrupted", tech, j.Status())
		}
	}

	// Boot a fresh daemon over the same directory: the interrupted jobs are
	// recovered, resumed from their checkpoints, and finish identical to
	// the fault-free references.
	s2, err := New(Options{Dir: dir, MaxConcurrent: len(specs), Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	s2.StartWorkers()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s2.Drain(ctx); err != nil {
			t.Errorf("drain 2: %v", err)
		}
	}()
	if got := s2.cRecovered.Value(); got != int64(len(specs)) {
		t.Errorf("serve_jobs_recovered_total = %d, want %d", got, len(specs))
	}
	for tech, id := range ids {
		done := waitStatus(t, ts2.URL, id, StatusDone)
		if done.Result == nil {
			t.Fatalf("%s: resumed job has no result", tech)
		}
		if done.Result.Fingerprint != refFP[tech] {
			t.Errorf("%s: resumed fingerprint %s != uninterrupted reference %s",
				tech, done.Result.Fingerprint, refFP[tech])
		}
		if done.Result.Resumed == 0 {
			t.Errorf("%s: resumed job replayed no journaled evaluations", tech)
		}
	}
}

// TestBootRecoveryFromRunningStatus covers the hard-crash signature: a job
// directory persisted mid-run (status "running", no drain marker) is reset
// to queued at boot and runs to the reference result.
func TestBootRecoveryFromRunningStatus(t *testing.T) {
	spec := smallSpec("SimulatedAnnealing-FixDF")
	ref := referenceRun(t, spec)

	dir := t.TempDir()
	jdir := filepath.Join(dir, "job-000007")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(jobFile{ID: "job-000007", Spec: spec, Status: StatusRunning})
	if err := os.WriteFile(filepath.Join(jdir, jobFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, base := testServer(t, Options{Dir: dir}, nil)
	if got := s.cRecovered.Value(); got != 1 {
		t.Fatalf("serve_jobs_recovered_total = %d, want 1", got)
	}
	done := waitStatus(t, base, "job-000007", StatusDone)
	if done.Result.Fingerprint != ref.Trace.Fingerprint() {
		t.Errorf("crash-recovered fingerprint %s != reference %s",
			done.Result.Fingerprint, ref.Trace.Fingerprint())
	}
	// The daemon's ID sequence advanced past the recovered job.
	_, jf := postJob(t, base, spec)
	if jf.ID != "job-000008" {
		t.Errorf("next assigned ID = %q, want job-000008", jf.ID)
	}
	waitStatus(t, base, jf.ID, StatusDone)
}

// TestDrainLeavesQueuedJobsQueued: a job still in the queue when drain
// lands is neither run nor lost — it stays queued on disk and the next boot
// picks it up.
func TestDrainLeavesQueuedJobsQueued(t *testing.T) {
	spec := smallSpec("ExplainableDSE-FixDF")
	ref := referenceRun(t, spec)

	dir := t.TempDir()
	reached := make(chan string, 1)
	release := make(chan struct{})
	s, err := New(Options{Dir: dir, MaxConcurrent: 1, Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.faults = func(id string, _ JobSpec) *eval.FaultPolicy {
		return &eval.FaultPolicy{OnEvaluation: func(ord int) {
			if ord == 0 {
				reached <- id
				<-release
			}
		}}
	}
	ts := httptest.NewServer(s.Handler())
	s.StartWorkers()

	_, j1 := postJob(t, ts.URL, spec) // runs, parks at the gate
	select {
	case <-reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job 1 never started")
	}
	_, j2 := postJob(t, ts.URL, spec) // stays queued behind the lone worker

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	waitReadyz(t, ts.URL, http.StatusServiceUnavailable)
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	// On disk: job 1 interrupted, job 2 still queued.
	for id, want := range map[string]JobStatus{j1.ID: StatusInterrupted, j2.ID: StatusQueued} {
		j, err := loadJob(filepath.Join(dir, id), t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if j.Status() != want {
			t.Errorf("job %s persisted as %q, want %q", id, j.Status(), want)
		}
	}

	// The next boot finishes both.
	_, base2 := testServer(t, Options{Dir: dir}, nil)
	for _, id := range []string{j1.ID, j2.ID} {
		done := waitStatus(t, base2, id, StatusDone)
		if done.Result.Fingerprint != ref.Trace.Fingerprint() {
			t.Errorf("job %s fingerprint diverged after drain+boot", id)
		}
	}
}

// waitReadyz polls /readyz until it answers with the wanted status code.
func waitReadyz(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("/readyz never reached %d", want)
}
