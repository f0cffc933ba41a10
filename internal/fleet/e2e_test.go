// Package fleet_test proves the coordinator's headline contract end to end
// against real serve workers: a distributed campaign's trace fingerprint is
// bit-identical to a single-node run's under worker death mid-campaign,
// model-version skew, shared worker pools, and total fleet loss.
package fleet_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdse/internal/exp"
	"xdse/internal/fleet"
	"xdse/internal/serve"
	"xdse/internal/workload"
)

// quietOpts builds worker options over fresh temp dirs with warnings
// suppressed (the chaos below makes plenty of expected noise).
func quietOpts(t *testing.T) serve.Options {
	t.Helper()
	return serve.Options{
		Dir:      t.TempDir(),
		CacheDir: t.TempDir(),
		Warnf:    func(string, ...any) {},
	}
}

// startWorker mounts a serve daemon on an httptest server behind a kill
// switch: once killed, every request — in-flight or future, probes included
// — has its connection dropped abruptly, which is what a kill -9 looks like
// from the coordinator's side.
func startWorker(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	s, err := serve.New(quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	dead := &atomic.Bool{}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, dead
}

// testConfig is the seconds-scale run the e2e tests share.
func testConfig() exp.Config {
	cfg := exp.Default()
	cfg.Out = io.Discard
	cfg.MapTrials = 60
	cfg.Seed = 1
	cfg.Workers = 2
	return cfg
}

const testBudget = 12

// modes pairs each mapper mode with a technique exercising it.
var modes = []struct{ tech string }{
	{"GridSearch-FixDF"},
	{"RandomSearch-Codesign"},
	{"ExplainableDSE-Codesign"},
}

// fleetOptions returns fast probes and an early hedge so chaos plays out
// within a seconds-scale run.
func fleetOptions() fleet.Options {
	return fleet.Options{
		HealthInterval: 25 * time.Millisecond,
		HedgeAfter:     200 * time.Millisecond,
		Warnf:          func(string, ...any) {},
	}
}

// calmOptions returns fleetOptions with hedging off, for tests whose
// assertions (exact dispatch or fault counts) must not be perturbed by hedge
// races — e.g. under the race detector with the whole package running.
func calmOptions() fleet.Options {
	o := fleetOptions()
	o.HedgeAfter = -1
	return o
}

// waitHealthy blocks until the coordinator's health monitor has admitted n
// workers, so a campaign's first pick cannot fall back local just because
// the initial probe hadn't landed yet.
func waitHealthy(t *testing.T, c *fleet.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.WorkersHealthy() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers healthy after 10s", c.WorkersHealthy(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillWorkerMidCampaignBitIdentical is the tentpole acceptance test: in
// every mapper mode, a campaign over two workers — one of which dies
// abruptly mid-campaign, mid-request — completes with a trace fingerprint
// bit-identical to the single-node reference, and the death is visible as
// a stolen (re-dispatched) shard.
func TestKillWorkerMidCampaignBitIdentical(t *testing.T) {
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

			// The kill switch is fleet-wide: the second /eval request,
			// whichever worker receives it, kills that worker — the request
			// is dropped mid-flight and so is everything after it, probes
			// included. This guarantees the campaign loses a worker that
			// was actively serving a shard, whichever worker it was dealt
			// to.
			var mu sync.Mutex
			evals := 0
			dead := &atomic.Bool{} // set once some worker has been killed
			mkWorker := func() *httptest.Server {
				s, err := serve.New(quietOpts(t))
				if err != nil {
					t.Fatal(err)
				}
				myDead := &atomic.Bool{}
				h := s.Handler()
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if myDead.Load() {
						panic(http.ErrAbortHandler)
					}
					if r.URL.Path == "/eval" {
						mu.Lock()
						evals++
						n := evals
						mu.Unlock()
						if n == 2 {
							myDead.Store(true)
							dead.Store(true)
							panic(http.ErrAbortHandler)
						}
					}
					h.ServeHTTP(w, r)
				}))
				t.Cleanup(ts.Close)
				return ts
			}
			ts1, ts2 := mkWorker(), mkWorker()

			c, err := fleet.New([]string{ts1.Listener.Addr().String(), ts2.Listener.Addr().String()}, fleetOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cfg := testConfig()
			cfg.Fleet = c
			got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
			if got.Err != "" {
				t.Fatalf("fleet run failed: %s", got.Err)
			}

			want, have := ref.Trace.Fingerprint(), got.Trace.Fingerprint()
			if want != have {
				t.Fatalf("fleet campaign fingerprint %s != single-node %s", have, want)
			}
			if !dead.Load() {
				t.Fatal("kill switch never tripped — the campaign did not exercise worker death")
			}
			if n := c.Metrics().Counter("fleet_leases_stolen_total").Value(); n == 0 {
				t.Fatal("worker died mid-flight but no shard was stolen")
			}
		})
	}
}

// TestInstalledRecordsAnswerCoordinator covers the export path that
// fingerprints alone cannot: a worker that exported nothing would still match
// them, because the coordinator would search every layer itself. Over two
// workers with hedging off, in every mapper mode, the coordinator answers a
// layer from an installed record exactly once per record installed, and those
// answers plus its own searches are the single-node run's searches.
func TestInstalledRecordsAnswerCoordinator(t *testing.T) {
	model := workload.ByName("ResNet18")
	for _, m := range modes {
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
			c, err := fleet.New([]string{ts1.Listener.Addr().String(), ts2.Listener.Addr().String()}, calmOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			waitHealthy(t, c, 2)
			cfg := testConfig()
			cfg.Fleet = c
			got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
			if got.Err != "" {
				t.Fatalf("fleet run failed: %s", got.Err)
			}
			if got.Trace.Fingerprint() != ref.Trace.Fingerprint() {
				t.Fatal("fleet campaign fingerprint differs from the single-node reference")
			}
			hits, searches := got.Stats.LayerHits, got.Stats.LayerMisses
			installed := c.Metrics().Counter("fleet_records_installed_total").Value()
			if hits == 0 || int64(hits) != installed {
				t.Errorf("%d layers answered from installed records, %d records installed; want equal and above 0", hits, installed)
			}
			if hits+searches != ref.Stats.LayerMisses {
				t.Errorf("%d installed answers + %d coordinator searches, want the single-node run's %d searches",
					hits, searches, ref.Stats.LayerMisses)
			}
		})
	}
}

// TestRejectedRecordLinesCounted: a worker whose first /eval body has one
// byte flipped inside a record line costs the coordinator that layer's
// search, never the answer: the line fails its CRC and is dropped, the drop
// is counted in fleet_records_rejected_total, and the campaign's CSV is the
// single-node reference's byte for byte.
func TestRejectedRecordLinesCounted(t *testing.T) {
	tech, _ := exp.TechniqueByName("ExplainableDSE-Codesign")
	model := workload.ByName("ResNet18")
	refCfg := testConfig()
	refCfg.CSVDir = t.TempDir()
	ref := exp.RunOne(context.Background(), refCfg, tech, model, testBudget)
	if ref.Err != "" {
		t.Fatalf("reference run failed: %s", ref.Err)
	}

	s, err := serve.New(quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var flipped atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/eval" || flipped.Load() {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		// The middle byte of the first record line, the line after the
		// header: a field byte, never a newline.
		first := bytes.IndexByte(body, '\n') + 1
		if end := bytes.IndexByte(body[first:], '\n'); rec.Code == http.StatusOK && end > 0 {
			body[first+end/2] ^= 0x01
			flipped.Store(true)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	c, err := fleet.New([]string{ts.Listener.Addr().String()}, calmOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitHealthy(t, c, 1)
	cfg := testConfig()
	cfg.Fleet = c
	cfg.CSVDir = t.TempDir()
	got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
	if got.Err != "" {
		t.Fatalf("fleet run failed: %s", got.Err)
	}
	if !flipped.Load() {
		t.Fatal("no record line was flipped: the test proved nothing")
	}
	if n := c.Metrics().Counter("fleet_records_rejected_total").Value(); n < 1 {
		t.Fatalf("fleet_records_rejected_total = %d after a flipped record line, want at least 1", n)
	}
	if c.Metrics().Counter("fleet_records_installed_total").Value() == 0 {
		t.Fatal("no records installed: the flipped line was not the only thing refused")
	}
	if readCSV(t, cfg.CSVDir, tech.Name) != readCSV(t, refCfg.CSVDir, tech.Name) {
		t.Fatal("campaign CSV differs from the single-node reference")
	}
}

// TestDegradedNoWorkersBitIdentical: with nothing listening anywhere, the
// coordinator degrades to pure local execution — same fingerprint, and not
// one shard dispatched.
func TestDegradedNoWorkersBitIdentical(t *testing.T) {
	tech, _ := exp.TechniqueByName("ExplainableDSE-Codesign")
	model := workload.ByName("ResNet18")
	ref := exp.RunOne(context.Background(), testConfig(), tech, model, testBudget)

	// A listener opened and immediately closed yields an address with
	// nothing behind it.
	ts := httptest.NewServer(http.NotFoundHandler())
	addr := ts.Listener.Addr().String()
	ts.Close()

	c, err := fleet.New([]string{addr}, fleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := c.WorkersHealthy(); n != 0 {
		t.Fatalf("WorkersHealthy = %d over a dead address, want 0", n)
	}
	cfg := testConfig()
	cfg.Fleet = c
	got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
	if got.Trace.Fingerprint() != ref.Trace.Fingerprint() {
		t.Fatal("degraded run fingerprint differs from single-node reference")
	}
	if n := c.Metrics().Counter("fleet_shards_dispatched_total").Value(); n != 0 {
		t.Fatalf("fleet_shards_dispatched_total = %d with no healthy worker, want 0", n)
	}
}

// TestVersionSkewQuarantine: a worker whose cost-model version differs from
// the coordinator's is quarantined by the membership handshake and never
// serves a shard; the campaign still completes bit-identically (locally).
func TestVersionSkewQuarantine(t *testing.T) {
	tech, _ := exp.TechniqueByName("GridSearch-FixDF")
	model := workload.ByName("ResNet18")
	ref := exp.RunOne(context.Background(), testConfig(), tech, model, testBudget)

	// A real worker whose /readyz reports another cost-model version.
	s, err := serve.New(quietOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var evals atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"status":"ready","model_version":"some-other-model-version"}`)
			return
		case "/eval":
			evals.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := fleet.New([]string{ts.Listener.Addr().String()}, fleetOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := c.WorkersHealthy(); n != 0 {
		t.Fatalf("WorkersHealthy = %d for a skewed worker, want 0 (quarantined)", n)
	}
	if n := c.Metrics().Counter("fleet_workers_quarantined_total").Value(); n == 0 {
		t.Fatal("skewed worker not counted quarantined")
	}
	cfg := testConfig()
	cfg.Fleet = c
	got := exp.RunOne(context.Background(), cfg, tech, model, testBudget)
	if got.Trace.Fingerprint() != ref.Trace.Fingerprint() {
		t.Fatal("quarantine run fingerprint differs from single-node reference")
	}
	if n := evals.Load(); n != 0 {
		t.Fatalf("quarantined worker received %d shards, want 0", n)
	}
}

// TestTwoCoordinatorsShareWorkerPool: two coordinators driving different
// campaigns over the same single worker must not interfere — shared
// evaluator-side caches, both bit-identical.
func TestTwoCoordinatorsShareWorkerPool(t *testing.T) {
	model := workload.ByName("ResNet18")
	techA, _ := exp.TechniqueByName("GridSearch-FixDF")
	techB, _ := exp.TechniqueByName("ExplainableDSE-Codesign")
	refA := exp.RunOne(context.Background(), testConfig(), techA, model, testBudget)
	refB := exp.RunOne(context.Background(), testConfig(), techB, model, testBudget)

	ts, _ := startWorker(t)
	addr := ts.Listener.Addr().String()
	newCoord := func() *fleet.Coordinator {
		c, err := fleet.New([]string{addr}, fleetOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	cA, cB := newCoord(), newCoord()

	var wg sync.WaitGroup
	var gotA, gotB exp.Run
	wg.Add(2)
	go func() {
		defer wg.Done()
		cfg := testConfig()
		cfg.Fleet = cA
		gotA = exp.RunOne(context.Background(), cfg, techA, model, testBudget)
	}()
	go func() {
		defer wg.Done()
		cfg := testConfig()
		cfg.Fleet = cB
		gotB = exp.RunOne(context.Background(), cfg, techB, model, testBudget)
	}()
	wg.Wait()

	if gotA.Trace.Fingerprint() != refA.Trace.Fingerprint() {
		t.Fatal("coordinator A's campaign differs from its single-node reference")
	}
	if gotB.Trace.Fingerprint() != refB.Trace.Fingerprint() {
		t.Fatal("coordinator B's campaign differs from its single-node reference")
	}
}
