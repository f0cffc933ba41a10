package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"xdse/internal/evalcache"
	"xdse/internal/exp"
	"xdse/internal/fleet"
	"xdse/internal/obs"
	"xdse/internal/serve"
	"xdse/internal/workload"
)

// fleetWorkers is the size of the fleet-2w localhost fleet.
const fleetWorkers = 2

// campaignInputs builds the campaign every workload runs: the paper's
// headline technique over the 11-model suite at exp.Default() budgets and
// seed, sized for a 2-CPU host (2 evaluation workers, runs one at a time).
func campaignInputs() (exp.Config, exp.Technique) {
	cfg := exp.Default()
	cfg.Workers = 2
	cfg.Parallel = 1
	cfg.Out = io.Discard
	tech, _ := exp.TechniqueByName("ExplainableDSE-Codesign")
	return cfg, tech
}

// bench is one workload's campaign and the state its passes share.
type bench struct {
	workload string
	cfg      exp.Config
	tech     exp.Technique
	dir      string // scratch directory the passes write under
	storeDir string // codesign-warm: the evalcache set-up fills
	// ref maps each model to the fingerprint of the plain single-node
	// reference run, computed untimed at set-up.
	ref map[string]string
	// refFailures describes reference runs that failed or disagreed with
	// the pinned fingerprints (when pins were given).
	refFailures []string
}

// newBench sets a workload up: it orders cfg.Models by seed, runs the plain
// single-node reference (checked against pins unless pins is nil) and, for
// codesign-warm, fills the evalcache with one untimed cold campaign.
func newBench(name string, cfg exp.Config, tech exp.Technique, seed int64, dir string, pins map[string]string) (*bench, error) {
	switch name {
	case wlCold, wlWarm, wlFleet:
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wlCold, wlWarm, wlFleet)
	}
	// The seed orders the roster. Runs share nothing, so the order changes
	// neither the work nor any run's result, only how allocation and
	// collection interleave with it.
	models := append([]*workload.Model(nil), cfg.Models...)
	rand.New(rand.NewSource(seed)).Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	cfg.Models = models
	b := &bench{workload: name, cfg: cfg, tech: tech, dir: dir, ref: map[string]string{}}

	camp := exp.RunCampaign(context.Background(), cfg, []exp.Technique{tech}, models, 0)
	for _, run := range camp.Runs {
		fp := run.Trace.Fingerprint()
		b.ref[run.Model] = fp
		if msg := runFailure(run); msg != "" {
			b.refFailures = append(b.refFailures, "reference "+msg)
		} else if pins != nil && pins[run.Model] != fp {
			b.refFailures = append(b.refFailures, fmt.Sprintf("reference %s: fingerprint %.12s differs from the pinned %.12s", run.Model, fp, pins[run.Model]))
		}
	}
	if name == wlWarm {
		b.storeDir = filepath.Join(dir, "store")
		fill := cfg
		fill.CacheDir = b.storeDir
		camp := exp.RunCampaign(context.Background(), fill, []exp.Technique{tech}, models, 0)
		if bad := b.check(camp.Runs); len(bad) > 0 {
			return nil, fmt.Errorf("filling the evalcache: %s", strings.Join(bad, "; "))
		}
	}
	return b, nil
}

// labels returns the run labels of one campaign, in roster order.
func (b *bench) labels() []string {
	out := make([]string, len(b.cfg.Models))
	for i, m := range b.cfg.Models {
		out[i] = m.Name
	}
	return out
}

// runFailure describes why a run failed on its own terms ("" if it did not).
func runFailure(run exp.Run) string {
	switch {
	case run.Err != "":
		return fmt.Sprintf("%s: %s", run.Model, run.Err)
	case run.Interrupted:
		return run.Model + ": interrupted"
	}
	return ""
}

// check returns one message per run that failed or whose fingerprint differs
// from the single-node reference.
func (b *bench) check(runs []exp.Run) []string {
	var bad []string
	for _, run := range runs {
		if msg := runFailure(run); msg != "" {
			bad = append(bad, msg)
		} else if fp := run.Trace.Fingerprint(); fp != b.ref[run.Model] {
			bad = append(bad, fmt.Sprintf("%s: fingerprint %.12s differs from the single-node reference %.12s", run.Model, fp, b.ref[run.Model]))
		}
	}
	return bad
}

// passResult is what one pass measured.
type passResult struct {
	setup    time.Duration // median of the pass's set-ups, see pass
	campaign time.Duration
	runs     []exp.Run

	mallocs, allocBytes, liveHeap, gcPauseNs uint64
	gcCycles                                 uint32

	storeLoaded int64                // codesign-warm: records evalcache.Open loaded
	coord       map[string]int64     // fleet-2w: coordinator counters
	workers     []map[string]float64 // fleet-2w: each worker's scraped /metrics
	faults      []string             // fleet-2w: Coordinator.Faults()
	events      []obs.Event          // traced passes: the probe's spans
}

// designs returns the pass's unique design evaluations.
func (r *passResult) designs() int {
	n := 0
	for _, run := range r.runs {
		n += run.Evaluations
	}
	return n
}

// workerQuantile estimates a quantile of a histogram the workers export,
// pooling their buckets and interpolating linearly inside the bucket that
// holds the rank (0 when nothing was observed).
func (r *passResult) workerQuantile(name string, q float64) float64 {
	cum := map[float64]float64{}
	for _, w := range r.workers {
		for series, v := range w {
			le, ok := strings.CutPrefix(series, name+`_bucket{le="`)
			if !ok {
				continue
			}
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err == nil {
				cum[bound] += v
			}
		}
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= rank {
			if math.IsInf(b, 1) { // the rank lies beyond the last finite bound
				return lo
			}
			return lo + (b-lo)*(rank-below)/(cum[b]-below)
		}
		lo, below = b, cum[b]
	}
	return lo
}

// pass runs one timed campaign. A traced pass runs it under a fresh probe.
func (b *bench) pass(traced bool) (*passResult, error) {
	cfg, tech := b.cfg, b.tech
	var p *probe
	if traced {
		p = newProbe(b.labels())
		tech = p.technique(tech)
	}
	r := &passResult{}
	var f *localFleet
	switch b.workload {
	case wlCold:
		r.setup = coldSetup()
	case wlWarm:
		sp := p.tr().StartRoot(setupTrace, kindEvalcache, "open")
		start := time.Now()
		store, err := evalcache.Open(b.storeDir, evalcache.Options{})
		r.setup = time.Since(start)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("open evalcache: %w", err)
		}
		r.storeLoaded = store.Metrics().Counter("evalcache_records_loaded_total").Value()
		cfg.Cache = store
	case wlFleet:
		var err error
		if f, err = startFleet(b.dir, p); err != nil {
			return nil, err
		}
		defer f.close()
		r.setup = f.setup
		cfg.Fleet = f.coord
	}

	runtime.GC()
	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	camp := exp.RunCampaign(context.Background(), cfg, []exp.Technique{tech}, cfg.Models, 0)
	r.campaign = time.Since(start)
	runtime.ReadMemStats(&after)
	if f != nil {
		// Deployed workers are processes of their own, so their memory is
		// not the campaign's; which evaluators a worker still pools also
		// depends on the order models ran in.
		f.stopWorkers(r)
	}
	runtime.GC()
	// After a full collection HeapAlloc is the live heap; HeapInuse would
	// add span fragmentation, which varies between identical passes.
	runtime.ReadMemStats(&live) // the store or the coordinator is still open
	runtime.KeepAlive(cfg.Cache)
	runtime.KeepAlive(cfg.Fleet)

	r.runs = camp.Runs
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.liveHeap = live.HeapAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	if p != nil {
		r.events = p.events()
	}
	return r, nil
}

// coldSetup times what a cold campaign pays before its first design:
// building the configuration, the model suite and the technique. That takes
// microseconds, so it is repeated and the median kept.
func coldSetup() time.Duration {
	const reps = 101
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		campaignInputs()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// localFleet is one pass's fleet: in-process serve workers on loopback and
// the coordinator sharding to them. The workers keep no evalcache: a store
// write is one fsync, and the host's fsync latency swung whole runs by a
// third, which would hide every change in RPC, dispatch or worker search.
type localFleet struct {
	dir     string
	servers []*serve.Server
	https   []*httptest.Server
	coord   *fleet.Coordinator
	setup   time.Duration // fleet.New until every worker is healthy
}

// startFleet starts the workers under a fresh directory in dir, then times
// fleet.New until every worker is healthy. A traced pass wraps each worker's
// handler and records the coordinator's start as a span.
func startFleet(dir string, p *probe) (*localFleet, error) {
	fdir, err := os.MkdirTemp(dir, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &localFleet{dir: fdir}
	warnf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	addrs := make([]string, fleetWorkers)
	for i := range addrs {
		wdir := filepath.Join(fdir, fmt.Sprintf("worker-%d", i+1))
		s, err := serve.New(serve.Options{Dir: filepath.Join(wdir, "jobs"), Warnf: warnf})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start worker: %w", err)
		}
		h := s.Handler()
		if p != nil {
			h = p.handler(fmt.Sprintf("worker-%d", i+1), h)
		}
		f.servers = append(f.servers, s)
		f.https = append(f.https, httptest.NewServer(h))
		addrs[i] = f.https[i].URL
	}
	// Starting a coordinator takes well under a millisecond, so it is done
	// several times and the median kept; the last coordinator serves the
	// pass.
	const reps = 5
	ds := make([]float64, reps)
	for i := range ds {
		if f.coord != nil {
			f.coord.Close()
			f.coord = nil
		}
		sp := p.tr().StartRoot(setupTrace, kindFleet, "new")
		start := time.Now()
		c, err := fleet.New(addrs, fleet.Options{})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start coordinator: %w", err)
		}
		f.coord = c
		for c.WorkersHealthy() < fleetWorkers {
			if time.Since(start) > 10*time.Second {
				f.close()
				return nil, fmt.Errorf("only %d of %d workers healthy after 10s", c.WorkersHealthy(), fleetWorkers)
			}
			time.Sleep(time.Millisecond)
		}
		ds[i] = float64(time.Since(start))
		sp.End()
	}
	f.setup = time.Duration(median(ds))
	return f, nil
}

// stopWorkers records the fleet's counters into r, then stops the workers.
func (f *localFleet) stopWorkers(r *passResult) {
	r.coord = map[string]int64{}
	for name, v := range f.coord.Metrics().Snapshot() {
		if n, ok := v.(int64); ok {
			r.coord[name] = n
		}
	}
	r.faults = f.coord.Faults()
	for _, hs := range f.https {
		m, err := scrape(hs.URL + "/metrics")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: scrape %s: %v\n", hs.URL, err)
		}
		r.workers = append(r.workers, m)
	}
	f.stopServers()
}

// stopServers stops whichever workers are still running.
func (f *localFleet) stopServers() {
	for _, hs := range f.https {
		hs.Close()
	}
	for _, s := range f.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: drain worker: %v\n", err)
		}
		cancel()
	}
	f.https, f.servers = nil, nil
}

// close stops the fleet and removes its directory.
func (f *localFleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	f.stopServers()
	os.RemoveAll(f.dir)
}

// scrape reads a Prometheus text exposition into series → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
