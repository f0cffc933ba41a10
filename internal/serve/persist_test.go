package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSubmitOversizedBodyIs413 regression-tests the status mapping for
// bodies beyond the 1 MiB request cap: the failure is the client exceeding
// the limit (413), not malformed JSON (400).
func TestSubmitOversizedBodyIs413(t *testing.T) {
	_, base := testServer(t, Options{}, nil)
	big := `{"technique":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("413 body not JSON: %v", err)
	}
	if !strings.Contains(body["error"], "limit") {
		t.Errorf("413 body %q does not mention the limit", body["error"])
	}

	// A merely-invalid body of acceptable size is still a 400.
	resp2, err := http.Post(base+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit = %d, want %d", resp2.StatusCode, http.StatusBadRequest)
	}
}

// TestServeSharedCacheAcrossIncarnations: a resubmitted job on a second
// daemon incarnation sharing -cache-dir must answer its layer searches from
// the persistent store and land on the same fingerprint.
func TestServeSharedCacheAcrossIncarnations(t *testing.T) {
	cacheDir := t.TempDir()
	spec := smallSpec("ExplainableDSE-FixDF")

	_, base := testServer(t, Options{CacheDir: cacheDir}, nil)
	resp, jf := postJob(t, base, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	done := waitStatus(t, base, jf.ID, StatusDone)
	if _, err := os.Stat(filepath.Join(cacheDir, "evalcache.jsonl")); err != nil {
		t.Fatalf("daemon wrote no cache file: %v", err)
	}

	// Second incarnation: fresh Server and job dir, same cache directory.
	_, base2 := testServer(t, Options{CacheDir: cacheDir}, nil)
	resp2, jf2 := postJob(t, base2, spec)
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit = %d", resp2.StatusCode)
	}
	done2 := waitStatus(t, base2, jf2.ID, StatusDone)
	if done2.Result.Fingerprint != done.Result.Fingerprint {
		t.Fatalf("cached rerun fingerprint %s != original %s",
			done2.Result.Fingerprint, done.Result.Fingerprint)
	}

	// The /metrics dump of the second incarnation must surface both the
	// evaluator-level persist hits and the store-level load counter.
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, mresp.Body); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	for _, metric := range []string{"eval_persist_hits_total", "evalcache_records_loaded_total"} {
		if !strings.Contains(dump, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}
