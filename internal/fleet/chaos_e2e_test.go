// Chaos and crash-resume end-to-end tests: campaigns under deterministic
// fault injection, a worker brownout that marks the worker unreachable, and a
// coordinator killed mid-campaign and resumed over its checkpoint and
// persistent cache must all produce traces — and CSV artifacts —
// bit-identical to a fault-free single-node reference.
package fleet_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"xdse/internal/eval"
	"xdse/internal/exp"
	"xdse/internal/fleet"
	"xdse/internal/serve"
	"xdse/internal/workload"
)

// startWorkerWith mounts a serve daemon whose /eval requests first pass
// through intercept; returning true means the interceptor answered (or
// deliberately broke) the request itself.
func startWorkerWith(t *testing.T, intercept func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
	t.Helper()
	s, err := serve.New(quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/eval" && intercept(w, r) {
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// testChaos is the nontrivial worker-side chaos script the e2e tests run on
// every worker: a dropped connection, a torn body, a corrupted body and a 503
// storm. A campaign this small sends each worker only a few shards, so the
// script starts at the worker's first /eval request.
func testChaos() *fleet.ChaosPolicy {
	return &fleet.ChaosPolicy{
		Seed:       7,
		DropAt:     []int{0},
		TruncateAt: []int{1},
		CorruptAt:  []int{2},
		StatusAt:   map[int]int{3: 503, 4: 503, 5: 503},
	}
}

// startChaosWorker starts a serve daemon whose /eval surface runs testChaos.
func startChaosWorker(t *testing.T) *httptest.Server {
	t.Helper()
	opts := quietOpts(t)
	opts.Chaos = testChaos()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// requireInjected fails the test unless the workers injected some fault, as
// their /metrics report it: a disarmed script would pass every other check
// while proving nothing.
func requireInjected(t *testing.T, workers ...*httptest.Server) {
	t.Helper()
	injected := map[string]int64{}
	var total int64
	for _, ts := range workers {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			name, val, ok := strings.Cut(line, " ")
			kind, isChaos := strings.CutPrefix(name, `fleet_chaos_injected_total{kind="`)
			if !ok || !isChaos {
				continue
			}
			n, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			injected[strings.TrimSuffix(kind, `"}`)] += int64(n)
			total += int64(n)
		}
	}
	if total == 0 {
		t.Fatalf("chaos policy active but nothing injected (%v)", injected)
	}
}

// TestChaosCampaignBitIdentical: a campaign over two workers running the full
// chaos script completes bit-identical to the single-node reference in every
// mapper mode — chaos can cost time, never correctness.
func TestChaosCampaignBitIdentical(t *testing.T) {
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

			ts1, ts2 := startChaosWorker(t), startChaosWorker(t)
			c, err := fleet.New([]string{ts1.Listener.Addr().String(), ts2.Listener.Addr().String()}, fleetOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cfg := testConfig()
			cfg.Fleet = c
			got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
			if got.Err != "" {
				t.Fatalf("chaos run failed: %s", got.Err)
			}
			if got.Trace.Fingerprint() != ref.Trace.Fingerprint() {
				t.Fatal("chaos campaign fingerprint differs from single-node reference")
			}
			requireInjected(t, ts1, ts2)
		})
	}
}

// TestBrownoutMarksUnreachableBitIdentical: a worker that browns out (a 503
// burst) is marked unreachable by its run of dispatch faults mid-campaign,
// rejoins on the monitor's next good readyz probe, and the campaign still
// matches the reference.
func TestBrownoutMarksUnreachableBitIdentical(t *testing.T) {
	tech, _ := exp.TechniqueByName("ExplainableDSE-Codesign")
	model := workload.ByName("ResNet18")
	ref := exp.RunOne(context.Background(), testConfig(), tech, model, testBudget)
	if ref.Err != "" {
		t.Fatalf("reference run failed: %s", ref.Err)
	}

	// The fleet is this one worker, so every shard reaches it: it serves 503
	// for its first four /eval requests, then heals. Its /readyz stays green
	// throughout; only the dispatch faults can mark it.
	var evals atomic.Int64
	ts := startWorkerWith(t, func(w http.ResponseWriter, r *http.Request) bool {
		if evals.Add(1) <= 4 {
			http.Error(w, "brownout", http.StatusServiceUnavailable)
			return true
		}
		return false
	})
	addr := ts.Listener.Addr().String()
	c, err := fleet.New([]string{addr}, fleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitHealthy(t, c, 1)
	cfg := testConfig()
	cfg.Fleet = c
	got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
	if got.Err != "" {
		t.Fatalf("brownout run failed: %s", got.Err)
	}
	if got.Trace.Fingerprint() != ref.Trace.Fingerprint() {
		t.Fatal("brownout campaign fingerprint differs from single-node reference")
	}
	m := c.Metrics()
	if n := m.Counter(`fleet_worker_faults_total{worker="` + addr + `"}`).Value(); n < 3 {
		t.Fatalf("brownout charged %d faults, want at least 3", n)
	}
	if n := m.Counter("fleet_worker_transitions_total").Value(); n <= 1 {
		t.Fatalf("fleet_worker_transitions_total = %d: the 503 burst never marked the worker past its start-up join", n)
	}
}

// TestRestartedCoordinatorAnswersFromStore is the deterministic resume unit
// of the crash story: campaign one merges every shard's records into its
// persistent cache; a second coordinator over the same cache directory finds
// every point's layer records local — zero /eval dispatches — and the trace
// still matches.
func TestRestartedCoordinatorAnswersFromStore(t *testing.T) {
	tech, _ := exp.TechniqueByName("ExplainableDSE-Codesign")
	model := workload.ByName("ResNet18")
	cacheDir := t.TempDir()

	ref := exp.RunOne(context.Background(), testConfig(), tech, model, testBudget)
	if ref.Err != "" {
		t.Fatalf("reference run failed: %s", ref.Err)
	}

	runFleet := func() (*fleet.Coordinator, exp.Run, int64) {
		var evals atomic.Int64
		ts := startWorkerWith(t, func(w http.ResponseWriter, r *http.Request) bool {
			evals.Add(1)
			return false
		})
		c, err := fleet.New([]string{ts.Listener.Addr().String()}, calmOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		waitHealthy(t, c, 1)
		cfg := testConfig()
		cfg.Fleet = c
		cfg.CacheDir = cacheDir
		run := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
		return c, run, evals.Load()
	}

	_, first, evals1 := runFleet()
	if first.Err != "" {
		t.Fatalf("first fleet run failed: %s", first.Err)
	}
	if evals1 == 0 {
		t.Fatal("first run dispatched nothing — the restart proves nothing")
	}

	c2, second, evals2 := runFleet()
	if second.Err != "" {
		t.Fatalf("restarted fleet run failed: %s", second.Err)
	}
	if second.Trace.Fingerprint() != ref.Trace.Fingerprint() {
		t.Fatal("restarted campaign fingerprint differs from single-node reference")
	}
	if evals2 != 0 {
		t.Fatalf("restarted run dispatched %d shards; the store should have answered all", evals2)
	}
	if n := c2.Metrics().Counter("fleet_points_local_total").Value(); n == 0 {
		t.Fatal("fleet_points_local_total = 0 on a fully warm restart")
	}
}

// TestKillCoordinatorMidCampaignBitIdentical is the tentpole acceptance test:
// in every mapper mode, with the chaos script active on every worker, the
// coordinator process is "killed" mid-campaign (run context cancelled at a fixed evaluation
// ordinal — the in-process stand-in for kill -9, exercising the same torn
// journal tails) and a fresh coordinator resumes from the campaign checkpoint
// plus the persistent cache. The final trace fingerprint AND the CSV artifact
// must be byte-identical to a fault-free single-node reference.
func TestKillCoordinatorMidCampaignBitIdentical(t *testing.T) {
	model := workload.ByName("ResNet18")
	for _, m := range modes {
		m := m
		t.Run(m.tech, func(t *testing.T) {
			tech, ok := exp.TechniqueByName(m.tech)
			if !ok {
				t.Fatalf("unknown technique %q", m.tech)
			}
			refCfg := testConfig()
			refCfg.CSVDir = t.TempDir()
			ref := exp.RunOne(context.Background(), refCfg, tech, model, testBudget)
			if ref.Err != "" {
				t.Fatalf("reference run failed: %s", ref.Err)
			}
			refCSV := readCSV(t, refCfg.CSVDir, m.tech)

			ckptDir := t.TempDir()
			cacheDir := t.TempDir()
			// Each coordinator gets fresh chaos workers, so both meet the
			// script from its first ordinal.
			var workers []*httptest.Server
			newCoord := func() *fleet.Coordinator {
				ts1, ts2 := startChaosWorker(t), startChaosWorker(t)
				workers = append(workers, ts1, ts2)
				c, err := fleet.New([]string{ts1.Listener.Addr().String(), ts2.Listener.Addr().String()}, fleetOptions())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Close)
				return c
			}

			// Phase 1: kill the campaign at a fixed unique-evaluation ordinal.
			ctx, cancel := context.WithCancel(context.Background())
			kcfg := testConfig()
			kcfg.Fleet = newCoord()
			kcfg.CheckpointDir = ckptDir
			kcfg.CacheDir = cacheDir
			kcfg.Faults = &eval.FaultPolicy{OnEvaluation: func(ord int) {
				if ord == 5 {
					cancel()
				}
			}}
			killed := exp.RunOne(ctx, kcfg, tech, model, testBudget)
			cancel()
			if !killed.Interrupted {
				t.Fatal("kill did not interrupt the campaign — nothing to resume")
			}

			// Phase 2: fresh coordinator, resumed campaign, chaos still on.
			rcfg := testConfig()
			rcfg.Fleet = newCoord()
			rcfg.CheckpointDir = ckptDir
			rcfg.CacheDir = cacheDir
			rcfg.Resume = true
			rcfg.CSVDir = t.TempDir()
			resumed := exp.RunOne(context.Background(), rcfg, tech, model, testBudget)
			if resumed.Interrupted || resumed.Err != "" {
				t.Fatalf("resumed run failed: interrupted=%v err=%q", resumed.Interrupted, resumed.Err)
			}
			if resumed.Resumed == 0 {
				t.Error("resumed run replayed no journaled evaluations")
			}
			if got, want := resumed.Trace.Fingerprint(), ref.Trace.Fingerprint(); got != want {
				t.Fatalf("resumed campaign fingerprint %s != fault-free single-node %s", got, want)
			}
			if gotCSV := readCSV(t, rcfg.CSVDir, m.tech); gotCSV != refCSV {
				t.Fatal("resumed campaign CSV differs byte-for-byte from the reference")
			}
			requireInjected(t, workers...)
		})
	}
}

// readCSV loads the run's trace CSV artifact.
func readCSV(t *testing.T, dir, tech string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, tech+"_ResNet18.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
