package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"xdse/internal/arch"
	"xdse/internal/eval"
	"xdse/internal/evalcache"
	"xdse/internal/fleet"
	"xdse/internal/perf"
)

// evalReq builds a valid shard request over n distinct edge-space points.
func evalReq(n int) fleet.EvalRequest {
	s := arch.EdgeSpace()
	var keys []string
	for i := 0; i < n; i++ {
		pt := s.Initial()
		pt[arch.PPEs] = s.Clamp(arch.PPEs, 1+i)
		keys = append(keys, pt.Key())
	}
	return fleet.EvalRequest{
		Protocol:     fleet.ProtocolVersion,
		ModelVersion: perf.ModelVersion(),
		Model:        "ResNet18",
		Mode:         eval.PrunedMappings.String(),
		MapTrials:    60,
		Seed:         1,
		Points:       keys,
	}
}

// postEval POSTs one shard request and returns the response (body closed by
// the caller).
func postEval(t *testing.T, base string, req fleet.EvalRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestEvalEndpointServesRecords(t *testing.T) {
	_, base := testServer(t, Options{CacheDir: t.TempDir()}, nil)
	resp := postEval(t, base, evalReq(2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("eval status %d: %s", resp.StatusCode, body)
	}
	var out fleet.EvalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ModelVersion != perf.ModelVersion() {
		t.Fatalf("response model version %q, want %q", out.ModelVersion, perf.ModelVersion())
	}
	if out.Evaluated != 2 {
		t.Fatalf("evaluated %d points, want 2", out.Evaluated)
	}
	if len(out.Records) == 0 {
		t.Fatal("no records returned")
	}
	// Every line must decode as an intact record under our version, and keys
	// must be unique (the worker dedups).
	seen := map[evalcache.Key]bool{}
	for _, line := range out.Records {
		rec, ver, err := evalcache.DecodeRecord(line)
		if err != nil {
			t.Fatalf("bad record line: %v", err)
		}
		if ver != perf.ModelVersion() {
			t.Fatalf("record version %q, want %q", ver, perf.ModelVersion())
		}
		if seen[rec.Key] {
			t.Fatalf("duplicate record %+v in response", rec.Key)
		}
		seen[rec.Key] = true
	}
}

func TestEvalEndpointRejections(t *testing.T) {
	_, base := testServer(t, Options{}, nil)
	for _, tc := range []struct {
		name   string
		mutate func(*fleet.EvalRequest)
		status int
	}{
		{"version-skew", func(r *fleet.EvalRequest) { r.ModelVersion = "other" }, http.StatusPreconditionFailed},
		{"bad-protocol", func(r *fleet.EvalRequest) { r.Protocol = 999 }, http.StatusBadRequest},
		// A coordinator one protocol behind cannot read this worker's records.
		{"previous-protocol", func(r *fleet.EvalRequest) { r.Protocol = fleet.ProtocolVersion - 1 }, http.StatusBadRequest},
		{"unknown-model", func(r *fleet.EvalRequest) { r.Model = "NoSuchNet" }, http.StatusBadRequest},
		{"unknown-mode", func(r *fleet.EvalRequest) { r.Mode = "psychic-mappings" }, http.StatusBadRequest},
		{"bad-point", func(r *fleet.EvalRequest) { r.Points = []string{"not a point"} }, http.StatusBadRequest},
		{"no-points", func(r *fleet.EvalRequest) { r.Points = nil }, http.StatusBadRequest},
		{"no-trials", func(r *fleet.EvalRequest) { r.MapTrials = 0 }, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := evalReq(1)
			tc.mutate(&req)
			resp := postEval(t, base, req)
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
		})
	}
}

func TestEvalEndpointShedsWhenSaturated(t *testing.T) {
	s, base := testServer(t, Options{EvalConcurrent: 1}, nil)
	// Occupy the single slot directly; the next request must shed, not queue.
	s.evalSem <- struct{}{}
	defer func() { <-s.evalSem }()
	resp := postEval(t, base, evalReq(1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated eval status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s.cEvalShed.Value() == 0 {
		t.Fatal("shed not counted")
	}
}

func TestHealthzCarriesFleetFields(t *testing.T) {
	_, base := testServer(t, Options{}, nil)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status       string `json:"status"`
		ModelVersion string `json:"model_version"`
		QueueDepth   *int   `json:"queue_depth"`
		EvalInflight *int   `json:"eval_inflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.ModelVersion != perf.ModelVersion() {
		t.Fatalf("healthz body %+v", body)
	}
	if body.QueueDepth == nil || body.EvalInflight == nil {
		t.Fatal("healthz missing queue_depth/eval_inflight")
	}

	ready, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer ready.Body.Close()
	var rb struct {
		Status       string `json:"status"`
		ModelVersion string `json:"model_version"`
	}
	if err := json.NewDecoder(ready.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	if rb.Status != "ready" || rb.ModelVersion != perf.ModelVersion() {
		t.Fatalf("readyz body %+v", rb)
	}
}
