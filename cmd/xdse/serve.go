package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xdse/internal/eval"
	"xdse/internal/fleet"
	"xdse/internal/obs"
	"xdse/internal/serve"
)

// runServe implements `xdse serve`: the long-running DSE job daemon. Jobs
// are submitted as JSON over HTTP (POST /jobs), executed under per-job
// deadlines with transient-fault retries, and journaled so that a SIGTERM —
// or a hard crash — never loses work: the daemon drains gracefully and the
// next invocation over the same -dir resumes every unfinished job to a
// bit-identical result.
func runServe(args []string) int {
	fs := flag.NewFlagSet("xdse serve", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		dir          = fs.String("dir", "xdse-jobs", "job root directory (state, checkpoints, CSV traces); rescanned at boot to resume unfinished jobs")
		queueCap     = fs.Int("queue-cap", 16, "admission queue capacity; submissions beyond it are shed with 429 + Retry-After")
		maxConc      = fs.Int("max-concurrent", 2, "jobs executing concurrently")
		maxWorkers   = fs.Int("max-job-workers", 4, "per-job evaluation worker-pool ceiling (job specs are clamped to it)")
		deadline     = fs.Duration("deadline", 0, "default per-job wall-clock deadline for jobs that set none (0 = unbounded)")
		evalTimeout  = fs.Duration("eval-timeout", 0, "per-evaluation watchdog; timeouts classify transient and are retried (0 = disabled)")
		retries      = fs.Int("retries", 3, "max attempts per evaluation for transient faults (1 = no retries)")
		retryBackoff = fs.Duration("retry-backoff", 10*time.Millisecond, "base delay before a retry, doubling per attempt up to a 1s cap")
		retryAfter   = fs.Duration("retry-after", 2*time.Second, "Retry-After hint attached to shed and draining responses")
		drainTimeout = fs.Duration("drain-timeout", 2*time.Minute, "how long a shutdown signal waits for in-flight jobs to checkpoint")
		cacheDir     = fs.String("cache-dir", "", "persistent evaluation-cache directory shared by every job (and by later daemon incarnations); empty = uncached")
		evalConc     = fs.Int("eval-concurrent", 2, "fleet shards served concurrently (POST /eval); excess requests are shed with 429 + Retry-After")
		traceOut     = fs.String("trace-out", "", "write this worker's span events (traced /eval requests) to this JSONL file")
		chaosSpec    = fs.String("chaos", "", "deterministic chaos spec for POST /eval, for testing a fleet (e.g. \"drop@2-4,storm@5-7=503,corrupt@9\"); see internal/fleet.ParseChaosSpec")
		debug        = fs.Bool("debug", false, "mount the runtime profiling surface (/debug/pprof/*, /debug/vars); off by default as it exposes process internals")
		runtimeSamp  = fs.Duration("runtime-sample", 0, "runtime sampler cadence for /metrics (goroutines, heap, GC pauses); 0 = 10s default, negative disables")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: xdse serve [flags]\n")
		return 2
	}

	var traceSink *obs.JSONLSink
	if *traceOut != "" {
		ts, err := obs.NewJSONLSink(*traceOut, obs.JSONLOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xdse serve: %v\n", err)
			return 1
		}
		traceSink = ts
	}

	chaos, err := fleet.ParseChaosSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdse serve: -chaos: %v\n", err)
		return 2
	}
	s, err := serve.New(serve.Options{
		Dir:             *dir,
		QueueCap:        *queueCap,
		MaxConcurrent:   *maxConc,
		MaxJobWorkers:   *maxWorkers,
		DefaultDeadline: *deadline,
		RetryAfter:      *retryAfter,
		EvalTimeout:     *evalTimeout,
		Retry:           flagRetry(*retries, *retryBackoff),
		CacheDir:        *cacheDir,
		EvalConcurrent:  *evalConc,
		Chaos:           chaos,
		Trace:           sinkOrNil(traceSink),
		Debug:           *debug,
		RuntimeSample:   *runtimeSamp,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xdse serve: %v\n", err)
		return 1
	}
	if err := s.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "xdse serve: %v\n", err)
		return 1
	}
	fmt.Printf("xdse serve: listening on %s, jobs under %s\n", s.Addr(), *dir)

	// SIGTERM/SIGINT start the graceful drain: readiness flips to 503,
	// in-flight jobs checkpoint at their next batch boundary, and the
	// process exits 0 so orchestrators treat the shutdown as clean. A
	// drain overrunning -drain-timeout exits 1 instead.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	sig := <-sigs
	fmt.Printf("xdse serve: %v received, draining (timeout %v)\n", sig, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "xdse serve: %v\n", err)
		return 1
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "xdse serve: trace: %v\n", err)
		}
	}
	fmt.Printf("xdse serve: drained; unfinished jobs resume on next start over %s\n", *dir)
	return 0
}

// sinkOrNil converts a possibly-nil *JSONLSink to the obs.Sink interface
// without producing a non-nil interface wrapping a nil pointer (the classic
// typed-nil trap: serve would then think tracing is on).
func sinkOrNil(s *obs.JSONLSink) obs.Sink {
	if s == nil {
		return nil
	}
	return s
}

// flagRetry builds the -retries/-retry-backoff policy under
// eval.DefaultRetry's cap, so a large -retries cannot stretch one backoff
// past a second.
func flagRetry(attempts int, backoff time.Duration) eval.RetryPolicy {
	p := eval.DefaultRetry()
	p.MaxAttempts, p.Backoff = attempts, backoff
	return p
}
