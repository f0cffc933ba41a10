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
	"xdse/internal/workload"
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

// readEvalBody reads a 200 /eval response and decodes it through the
// coordinator's decoder, failing on a status other than 200, a body that
// disagrees with its Content-Length, and any record line the decoder drops.
func readEvalBody(t *testing.T, resp *http.Response) (fleet.EvalHeader, []evalcache.Record) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d, body of %d bytes", resp.ContentLength, len(body))
	}
	hdr, recs, rejected, err := fleet.DecodeEvalBody(body, perf.ModelVersion(), nil)
	if err != nil {
		t.Fatalf("decode eval body: %v", err)
	}
	if rejected != 0 {
		t.Fatalf("%d record lines rejected", rejected)
	}
	return hdr, recs
}

func TestEvalEndpointServesRecords(t *testing.T) {
	_, base := testServer(t, Options{CacheDir: t.TempDir()}, nil)
	resp := postEval(t, base, evalReq(2))
	defer resp.Body.Close()
	out, recs := readEvalBody(t, resp)
	if out.ModelVersion != perf.ModelVersion() {
		t.Fatalf("response model version %q, want %q", out.ModelVersion, perf.ModelVersion())
	}
	if out.Evaluated != 2 {
		t.Fatalf("evaluated %d points, want 2", out.Evaluated)
	}
	if len(recs) == 0 {
		t.Fatal("no records returned")
	}
	// Every line decoded as an intact record under our version; keys must
	// be unique (the worker dedups).
	seen := map[evalcache.Key]bool{}
	for _, rec := range recs {
		if seen[rec.Key] {
			t.Fatalf("duplicate record %+v in response", rec.Key)
		}
		seen[rec.Key] = true
	}
}

// TestEvalEndpointRecordsRoundTrip: in every mapper mode, a worker's /eval
// body decodes to exactly the records its Results export, in order. The
// Results are the pooled evaluator's own, answered from its design memo.
func TestEvalEndpointRecordsRoundTrip(t *testing.T) {
	for _, mode := range []eval.MapperMode{eval.FixedDataflow, eval.RandomMappings, eval.PrunedMappings} {
		t.Run(mode.String(), func(t *testing.T) {
			s, base := testServer(t, Options{}, nil)
			req := evalReq(3)
			req.Mode = mode.String()
			resp := postEval(t, base, req)
			defer resp.Body.Close()
			hdr, got := readEvalBody(t, resp)
			if hdr.Evaluated != 3 || hdr.Records != len(got) || len(got) == 0 {
				t.Fatalf("header %+v over %d records", hdr, len(got))
			}

			ev := s.evaluatorFor(workload.ByName(req.Model), mode, req.MapTrials, req.Seed)
			var results []*eval.Result
			for _, key := range req.Points {
				pt, err := arch.ParseKey(key)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, ev.Evaluate(pt))
			}
			lines, n := ev.AppendRecords(nil, results)
			if n != len(got) {
				t.Fatalf("the Results export %d records, the body carries %d", n, len(got))
			}
			for i, line := range bytes.SplitAfter(lines, []byte{'\n'})[:n] {
				want, _, err := evalcache.DecodeRecord(line, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("record %d: body carries %+v, the Results export %+v", i, got[i], want)
				}
			}
		})
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
