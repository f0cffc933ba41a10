package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xdse/internal/obs"
	"xdse/internal/perf"
)

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz          — liveness (200 while the process serves), with
//	                         model_version, queue_depth, and eval_inflight
//	                         so fleet operators can see load and skew at a
//	                         glance
//	GET  /readyz           — readiness (503 while draining); carries
//	                         model_version, the fleet membership handshake
//	GET  /metrics          — Prometheus text dump: service + all runs
//	POST /jobs             — submit a JobSpec; 201, 400 (invalid),
//	                         429 + Retry-After (queue full),
//	                         503 + Retry-After (draining)
//	GET  /jobs             — list all jobs
//	GET  /jobs/{id}        — one job's status and result
//	POST /jobs/{id}/cancel — cancel a queued or running job
//	POST /eval             — evaluate one fleet shard and return its
//	                         content-addressed records; 412 on model-version
//	                         skew, 429 + Retry-After when saturated
//
// With Options.Debug, the runtime profiling surface is mounted too:
//
//	GET  /debug/pprof/*    — net/http/pprof (profile, heap, goroutine, ...)
//	GET  /debug/vars       — expvars + the merged metrics registry as JSON
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":        "ok",
			"model_version": perf.ModelVersion(),
			"queue_depth":   len(s.queue),
			"eval_inflight": len(s.evalSem),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status":        "draining",
				"model_version": perf.ModelVersion(),
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"status":        "ready",
			"model_version": perf.ModelVersion(),
		})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	// The chaos decorator (inert when unconfigured) sits exactly at the RPC
	// boundary the fleet coordinator talks to, so injected faults exercise
	// the real wire path: aborted connections, injected statuses, and
	// mutated bodies all reach the coordinator as genuine HTTP outcomes.
	mux.Handle("POST /eval", s.chaos.Wrap(http.HandlerFunc(s.handleEval)))
	if s.opts.Debug {
		s.mountDebug(mux)
	}
	return mux
}

// handleMetrics serves the merged service+runs registry as Prometheus text,
// self-validated before it leaves the process so a malformed dump is a loud
// 500 here rather than a silent scrape failure downstream.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	if err := s.mergedMetrics().WritePrometheus(&b); err != nil {
		httpError(w, http.StatusInternalServerError, "render metrics: %v", err)
		return
	}
	if err := obs.ValidatePrometheus(b.String()); err != nil {
		httpError(w, http.StatusInternalServerError, "metrics self-validation failed: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// handleSubmit admits one job, mapping admission failures onto the
// load-shedding contract: full queue → 429 + Retry-After, draining → 503 +
// Retry-After, both with machine-readable bodies so clients can back off.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		// An oversized body is the client exceeding the request cap, not a
		// malformed spec: 413 tells it to shrink the payload, not fix JSON.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge, "job spec exceeds %d-byte limit", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "parse job spec: %v", err)
		return
	}
	if err := spec.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	j, err := s.submit(spec)
	switch {
	case errors.Is(err, errShed):
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		httpError(w, http.StatusTooManyRequests, "job queue full (capacity %d); retry later", s.opts.QueueCap)
		return
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		httpError(w, http.StatusServiceUnavailable, "daemon draining; resubmit to the next instance")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusCreated, j.snapshot())
}

// handleList serves every known job, boot-recovered history included.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobList()
	out := make([]jobFile, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGet serves one job's current snapshot.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleCancel requests cancellation of a queued or running job; cancelling
// an already-terminal job is a 409 so clients can distinguish "too late"
// from "unknown job".
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if !j.requestCancel() {
		httpError(w, http.StatusConflict, "job %s already %s", j.ID, j.Status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// writeJSON renders v with the proper content type and status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// httpError renders a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a duration as a Retry-After header value
// (whole seconds, minimum 1).
func retryAfterSeconds(d time.Duration) string {
	sec := int(d.Seconds())
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}
