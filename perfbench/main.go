// Command perfbench is the repository's campaign benchmark: it times the
// paper's headline technique, ExplainableDSE-Codesign over the 11-model
// suite at exp.Default() budgets, in one of three workloads that stress
// different layers (see BENCHMARK.json for why each was chosen):
//
//	codesign-cold  a fresh campaign with no persistent store
//	codesign-warm  the same campaign answered from an evalcache set-up filled
//	fleet-2w       the same campaign sharded to two in-process serve workers
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload codesign-cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all
//
// --seed orders the suite's models. The campaign itself keeps exp.Default()'s
// seed, so every seed does the same work and yields the same results, and
// run-to-run spread measures the host rather than the input.
//
// With --trace 0 it measures untraced passes for --seconds and reports the
// medians of the end-to-end metrics, all host time. With --trace 1 it alternates untraced
// and traced passes; a traced pass wraps the public entry points the
// campaign passes through (see probe.go) and records one span per call, from
// which it reports the per-layer split, and it writes the last traced pass
// to .bench_build/perfbench/trace-<workload>.jsonl for `xdse trace`.
//
// Every run of every pass is checked against a plain single-node reference
// computed at set-up, and that reference against fingerprints pinned in
// pins.go. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, attempted and failed
// counting campaign runs. The exit status is 1 when any check failed.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"xdse/internal/obs"
)

// outDir holds everything a run writes, relative to the repository root.
const outDir = ".bench_build/perfbench"

// minPasses is the fewest untraced passes a run reports a median over.
const minPasses = 3

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: codesign-cold, codesign-warm or fleet-2w")
	seed := flag.Int64("seed", 1, "seed ordering the campaign's models")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer split from traced passes, 0 the end-to-end metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}

	stamp := hostStamp()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d\n", stamp, *seed, *seconds, *trace)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	cfg, tech := campaignInputs()
	b, err := newBench(*name, cfg, tech, *seed, dir, seedFingerprints)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	attempted, failures := len(b.ref), b.refFailures

	// One untimed pass first, so heap growth and first-use costs of the
	// process land outside the measurements. Each pass is reduced to its
	// metrics at once: keeping its runs would grow the heap every later
	// pass collects.
	var plain, traced []map[string]float64
	var spans []obs.Event // the last traced pass's
	deadline := time.Time{}
	for i := 0; ; i++ {
		tracedPass := *trace == 1 && i%2 == 0 && i > 0
		r, err := b.pass(tracedPass)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", i, err)
			return 2
		}
		attempted += len(r.runs)
		failures = append(failures, b.check(r.runs)...)
		for _, f := range r.faults {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: fleet fault: %s\n", i, f)
		}
		m := endToEndOf(r)
		switch {
		case i == 0:
			deadline = time.Now().Add(time.Duration(*seconds) * time.Second)
			continue
		case tracedPass:
			maps.Copy(m, layersOf(r, b.cfg.Workers))
			traced = append(traced, m)
			spans = r.events
		default:
			plain = append(plain, m)
		}
		if time.Now().After(deadline) && len(plain) >= minPasses && (*trace == 0 || len(traced) > 0) {
			break
		}
	}

	var metrics map[string]float64
	catalogue := endToEnd
	if *trace == 0 {
		metrics = medians(plain)
	} else {
		catalogue = perLayer
		metrics = medians(traced)
		untraced := medians(plain)["campaign_s"]
		metrics["trace.untraced_campaign_s"] = untraced
		metrics["trace.overhead_ratio"] = metrics["campaign_s"]/untraced - 1
		path := filepath.Join(outDir, "trace-"+*name+".jsonl")
		if err := writeTrace(path, stamp, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans of the last traced pass in %s (read with `xdse trace`)\n", path)
		warnBackpressure(*name, metrics)
	}

	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", f)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d untraced and %d traced passes; runs attempted %d, failed %d (failed_ratio %.4g)\n",
		*name, len(plain), len(traced), attempted, len(failures), float64(len(failures))/float64(attempted))
	out := map[string]any{}
	for _, m := range catalogue {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", m.name, metrics[m.name], m.unit)
		out[m.name] = map[string]any{"value": metrics[m.name], "unit": m.unit}
	}
	fmt.Printf("# host %s\n", stamp)
	line, err := json.Marshal(map[string]any{
		"correct":   len(failures) == 0,
		"attempted": attempted,
		"failed":    len(failures),
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// warnBackpressure flags a healthy fleet run that still retried, shed or
// fell back: the coordinator overrunning a worker's admission limit shows up
// here, and it is a known open issue, not noise.
func warnBackpressure(name string, m map[string]float64) {
	if name != wlFleet {
		return
	}
	for _, k := range []string{"fleet.retries", "serve.shed_429", "fleet.local_fallbacks"} {
		if m[k] != 0 {
			fmt.Fprintf(os.Stderr, "perfbench: WARNING %s = %g on a healthy fleet: the coordinator is overrunning worker admission (backpressure)\n", k, m[k])
		}
	}
}

// writeTrace writes a traced pass's spans as JSONL for `xdse trace`, headed
// by a note carrying the host stamp.
func writeTrace(path, stamp string, events []obs.Event) error {
	sink, err := obs.NewJSONLSink(path, obs.JSONLOptions{SyncEvery: -1})
	if err != nil {
		return err
	}
	sink.Emit(obs.Event{Kind: obs.KindNote, Text: "perfbench " + stamp})
	for _, ev := range events {
		sink.Emit(ev)
	}
	return sink.Close()
}

// hostStamp identifies the code and the host a measurement came from: the
// git commit when the tree is a git checkout, a digest of the Go sources and
// module files either way, the Go version, the CPU count and GOMAXPROCS.
func hostStamp() string {
	commit := "none"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Stop git from finding a repository above the checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("commit=%s source=%s go=%s nproc=%d gomaxprocs=%d",
		commit, sourceDigest(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// sourceDigest hashes every .go, go.mod and go.sum file under the working
// directory, outside hidden and build directories, so a stamp names the
// code even where no commit is known.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum"):
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}
