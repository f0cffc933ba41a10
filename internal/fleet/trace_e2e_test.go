package fleet_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"xdse/internal/exp"
	"xdse/internal/fleet"
	"xdse/internal/obs"
	"xdse/internal/serve"
	"xdse/internal/workload"
)

// spanKinds counts the span events of a merged trace by kind.
func spanKinds(events []obs.Event) map[string]int {
	kinds := map[string]int{}
	for _, ev := range events {
		if ev.Kind == obs.KindSpan {
			kinds[ev.SpanKind]++
		}
	}
	return kinds
}

// TestTracedFleetCampaignBitIdenticalAndMerged is the tracing-spine
// acceptance test: in every mapper mode, attaching a trace sink to a fleet
// campaign (spans crossing two real process boundaries via the trace header
// and merging back through /eval responses) must not move the trace
// fingerprint off the untraced single-node reference — and the merged
// cross-process span stream must reconstruct the full causal tree: valid
// parent links end to end, with campaign/batch/dispatch/rpc levels from the
// coordinator and queue/worker-eval/cache spans from the workers.
func TestTracedFleetCampaignBitIdenticalAndMerged(t *testing.T) {
	model := workload.ByName("ResNet18")
	for _, m := range modes {
		m := m
		t.Run(m.tech, func(t *testing.T) {
			tech, ok := exp.TechniqueByName(m.tech)
			if !ok {
				t.Fatalf("unknown technique %q", m.tech)
			}
			ref := exp.RunOne(context.Background(), testConfig(), tech, model, testBudget)
			if ref.Err != "" {
				t.Fatalf("reference run failed: %s", ref.Err)
			}

			ts1, _ := startWorker(t)
			ts2, _ := startWorker(t)
			c, err := fleet.New([]string{ts1.Listener.Addr().String(), ts2.Listener.Addr().String()}, fleetOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			col := &obs.CollectSink{}
			cfg := testConfig()
			cfg.Fleet = c
			cfg.Trace = col
			got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
			if got.Err != "" {
				t.Fatalf("traced fleet run failed: %s", got.Err)
			}
			if want, have := ref.Trace.Fingerprint(), got.Trace.Fingerprint(); want != have {
				t.Fatalf("traced fleet fingerprint %s != untraced single-node %s — tracing perturbed the search", have, want)
			}

			events := col.Events()
			if err := obs.ValidateSpans(events); err != nil {
				t.Fatalf("merged trace failed parent-link validation: %v", err)
			}
			kinds := spanKinds(events)
			for _, kind := range []string{
				obs.SpanCampaign, obs.SpanBatch, obs.SpanReplay,
				obs.SpanDispatch, obs.SpanRPC, obs.SpanInstall,
				obs.SpanQueue, obs.SpanWorkerEval, obs.SpanCache,
			} {
				if kinds[kind] == 0 {
					t.Errorf("merged trace has no %q spans: %v", kind, kinds)
				}
			}
			if kinds[obs.SpanCampaign] != 1 {
				t.Errorf("merged trace has %d campaign roots, want 1", kinds[obs.SpanCampaign])
			}

			// Every non-span explanation event and every span carries the
			// run label — the merge stamps worker spans like local events.
			for _, ev := range events {
				if ev.Run == "" {
					t.Fatalf("merged event missing run label: %+v", ev)
				}
			}

			// The forest reconstructs the cross-process chain: some rpc span
			// must have worker-side children (grafted via the trace header).
			forest, err := obs.BuildSpanForest(events)
			if err != nil {
				t.Fatal(err)
			}
			grafted := false
			for _, tree := range forest {
				for _, n := range tree.Nodes {
					if n.SpanKind == obs.SpanRPC && len(n.Children) > 0 {
						grafted = true
					}
				}
			}
			if !grafted {
				t.Error("no rpc span has worker-side children — cross-process graft broken")
			}
		})
	}
}

// TestWorkerFaultAttribution pins the per-worker fault counters: a campaign
// over one worker that dies mid-flight (and one survivor) must attribute
// faults to worker-labeled counters, so a flaky host is identifiable from
// /metrics without log spelunking.
func TestWorkerFaultAttribution(t *testing.T) {
	tech, _ := exp.TechniqueByName("ExplainableDSE-Codesign")
	model := workload.ByName("ResNet18")

	// Worker 1 dies abruptly at its first /eval — the dropped in-flight
	// request is a transient fault attributed to its address. Worker 2
	// reports not-ready until then, so worker 1 is the only healthy worker
	// and that first dispatch must go to it; afterwards worker 2 serves, so
	// the campaign completes remotely as well as locally.
	s1, err := serve.New(quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	dead := &atomic.Bool{}
	h1 := s1.Handler()
	ts1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			panic(http.ErrAbortHandler)
		}
		if r.URL.Path == "/eval" {
			dead.Store(true)
			panic(http.ErrAbortHandler)
		}
		h1.ServeHTTP(w, r)
	}))
	t.Cleanup(ts1.Close)
	s2, err := serve.New(quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	h2 := s2.Handler()
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && !dead.Load() {
			http.Error(w, "not ready until worker 1 has died", http.StatusServiceUnavailable)
			return
		}
		h2.ServeHTTP(w, r)
	}))
	t.Cleanup(ts2.Close)
	addr1 := ts1.Listener.Addr().String()
	addr2 := ts2.Listener.Addr().String()

	// Calm timings: under load an attempt timeout or a hedge race could charge
	// a fault to the healthy worker and break the zero-fault assertion.
	c, err := fleet.New([]string{addr1, addr2}, calmOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitHealthy(t, c, 1) // worker 1: worker 2 cannot be ready yet
	cfg := testConfig()
	cfg.Fleet = c
	got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
	if got.Err != "" {
		t.Fatalf("fleet run failed: %s", got.Err)
	}

	if n := c.Metrics().Counter(`fleet_worker_faults_total{worker="` + addr1 + `"}`).Value(); n == 0 {
		t.Error("dead worker accrued no per-worker faults")
	}
	if n := c.Metrics().Counter(`fleet_worker_faults_total{worker="` + addr2 + `"}`).Value(); n != 0 {
		t.Errorf("healthy worker attributed %d faults, want 0", n)
	}
}
