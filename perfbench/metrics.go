package main

import (
	"math"
	"sort"
	"strings"

	"xdse/internal/obs"
)

// metric is one entry of the benchmark's metric catalogue. BENCHMARK.json
// lists the same names, units and directions (the self-tests hold the two
// to each other); the catalogue adds what that file has no place for.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound (end-to-end only) is the share of the parent's median by which
	// the metric may worsen before a change counts as a regression.
	bound float64
	// base (ratios only) names the printed metric the ratio divides by.
	base string
	// moves (per-layer only) is the interaction map: the end-to-end metric
	// this layer metric should move, and on which workload.
	moves string
}

// endToEnd are the metrics a user of a campaign sees, all host time and all
// measured with tracing off. Run failures are not among them: the result
// line's attempted and failed counts carry them, with runs as the base.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "campaign_s", unit: "s", better: "lower", bound: 0.25},
	{name: "designs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "allocs_per_design", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_kb_per_design", unit: "KiB", better: "lower", bound: 0.05},
	{name: "live_heap_mb", unit: "MiB", better: "lower", bound: 0.10},
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlCold  = "codesign-cold"
	wlWarm  = "codesign-warm"
	wlFleet = "fleet-2w"
)

const (
	onCold  = " on " + wlCold
	onWarm  = " on " + wlWarm
	onFleet = " on " + wlFleet
)

// perLayer are the metrics of single layers, taken from a traced pass: span
// timings recorded by the probe and counters the program already exports.
var perLayer = []metric{
	{name: "dse.self_s", unit: "s", better: "lower", moves: "campaign_s" + onWarm},
	{name: "dse.batches", unit: "count", better: "lower", moves: "campaign_s" + onWarm},
	{name: "dse.unique_designs", unit: "count", better: "lower", moves: "designs_per_s" + onCold},
	{name: "dse.repeat_steps", unit: "count", better: "lower", moves: "campaign_s" + onWarm},

	{name: "accelmodel.calls", unit: "count", better: "lower", moves: "campaign_s" + onWarm},
	{name: "accelmodel.busy_s", unit: "s", better: "lower", moves: "campaign_s" + onWarm},
	{name: "accelmodel.call_us_p50", unit: "us", better: "lower", moves: "campaign_s" + onWarm},
	{name: "accelmodel.call_us_p99", unit: "us", better: "lower", moves: "campaign_s" + onWarm},

	{name: "search.batch_s", unit: "s", better: "lower", moves: "campaign_s" + onCold},
	{name: "search.points_per_batch", unit: "ratio", better: "higher", base: "dse.batches", moves: "campaign_s" + onCold},
	{name: "search.workers", unit: "count", better: "higher", moves: "campaign_s" + onCold},
	{name: "search.parallelism", unit: "ratio", better: "higher", base: "search.workers", moves: "campaign_s" + onCold},

	{name: "eval.calls", unit: "count", better: "lower", moves: "campaign_s" + onCold},
	{name: "eval.busy_s", unit: "s", better: "lower", moves: "campaign_s" + onCold},
	{name: "eval.memo_hit_ratio", unit: "ratio", better: "higher", base: "eval.calls", moves: "campaign_s" + onCold},
	{name: "eval.design_ms_p50", unit: "ms", better: "lower", moves: "campaign_s" + onCold},
	{name: "eval.design_ms_p95", unit: "ms", better: "lower", moves: "campaign_s" + onCold},
	{name: "eval.layer_lookups", unit: "count", better: "lower", moves: "allocs_per_design" + onCold},
	{name: "eval.layer_searches", unit: "count", better: "lower", moves: "campaign_s" + onCold + "; reads 0" + onWarm},
	{name: "eval.layer_hit_ratio", unit: "ratio", better: "higher", base: "eval.layer_lookups", moves: "campaign_s" + onCold},
	{name: "eval.layer_search_s", unit: "s", better: "lower", moves: "campaign_s" + onCold},
	{name: "eval.layer_search_us_p50", unit: "us", better: "lower", moves: "campaign_s" + onCold},
	{name: "eval.layer_search_us_p95", unit: "us", better: "lower", moves: "campaign_s" + onCold},
	{name: "eval.warm_probes", unit: "count", better: "higher", moves: "campaign_s" + onCold},
	{name: "eval.warm_fallbacks", unit: "count", better: "lower", moves: "campaign_s" + onCold},

	{name: "mapping.trials", unit: "count", better: "lower", moves: "campaign_s" + onCold + " only"},
	{name: "mapping.lb_pruned", unit: "count", better: "higher", moves: "campaign_s" + onCold + " only"},
	{name: "mapping.prune_ratio", unit: "ratio", better: "higher", base: "mapping.trials", moves: "campaign_s" + onCold + " only"},

	{name: "perf.tier1_calls", unit: "count", better: "lower", moves: "campaign_s" + onCold + " only"},
	{name: "perf.tier2_calls", unit: "count", better: "lower", moves: "campaign_s" + onCold + " only"},
	{name: "perf.tier2_share", unit: "ratio", better: "lower", base: "perf.tier1_calls", moves: "campaign_s" + onCold + " only"},

	{name: "evalcache.open_s", unit: "s", better: "lower", moves: "setup_s" + onWarm},
	{name: "evalcache.records_loaded", unit: "count", better: "higher", moves: "setup_s" + onWarm},
	{name: "evalcache.hits", unit: "count", better: "higher", moves: "campaign_s" + onWarm},
	{name: "evalcache.misses", unit: "count", better: "lower", moves: "campaign_s" + onWarm},
	{name: "evalcache.lookups", unit: "count", better: "lower", moves: "campaign_s" + onWarm},
	{name: "evalcache.hit_ratio", unit: "ratio", better: "higher", base: "evalcache.lookups", moves: "campaign_s" + onWarm},

	{name: "fleet.prepare_s", unit: "s", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.prepare_ms_p50", unit: "ms", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.prepare_ms_p95", unit: "ms", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.shards", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.records_installed", unit: "count", better: "higher", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.coordinator_searches", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.retries", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.local_fallbacks", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.fallback_ratio", unit: "ratio", better: "lower", base: "fleet.shards", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.hedges", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.steals", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "fleet.worker_faults", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},

	{name: "serve.eval_requests", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "serve.eval_busy_s", unit: "s", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "serve.eval_ms_p50", unit: "ms", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "serve.eval_ms_p95", unit: "ms", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "serve.shed_429", unit: "count", better: "lower", moves: "campaign_s" + onFleet + " only"},
	{name: "serve.eval_queue_wait_ms_p95", unit: "ms", better: "lower", moves: "campaign_s" + onFleet + " only"},

	{name: "go.gc_cycles", unit: "count", better: "lower", moves: "allocs_per_design and live_heap_mb on every workload"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", moves: "allocs_per_design and live_heap_mb on every workload"},

	{name: "trace.untraced_campaign_s", unit: "s", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", base: "trace.untraced_campaign_s"},
}

// endToEndOf computes a pass's end-to-end metrics.
func endToEndOf(r *passResult) map[string]float64 {
	designs := float64(r.designs())
	campaign := r.campaign.Seconds()
	return map[string]float64{
		"setup_s":             r.setup.Seconds(),
		"campaign_s":          campaign,
		"designs_per_s":       designs / campaign,
		"allocs_per_design":   float64(r.mallocs) / designs,
		"alloc_kb_per_design": float64(r.allocBytes) / 1024 / designs,
		"live_heap_mb":        float64(r.liveHeap) / (1 << 20),
	}
}

// layersOf computes a traced pass's per-layer metrics, all but the trace.*
// pair, which compare traced with untraced passes (see main).
func layersOf(r *passResult, workers int) map[string]float64 {
	reg := obs.NewRegistry()
	var batches, points, designs, repeats float64
	var batchWall float64
	for _, run := range r.runs {
		reg.Merge(run.Metrics)
		batches += float64(run.Batch.Batches)
		points += float64(run.Batch.Points)
		batchWall += run.Batch.Wall.Seconds()
		designs += float64(run.Evaluations)
		repeats += float64(run.Trace.RepeatSteps)
	}
	count := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	hist := func(name string) *obs.Histogram { return reg.Histogram(name, obs.DurationBuckets()) }
	sp := spansByKind(r.events)

	var prepare []float64
	shed := 0.0
	for _, ev := range r.events {
		switch {
		case ev.SpanKind == kindFleet && ev.Name == "prepare":
			prepare = append(prepare, float64(ev.WallNs)/1e9)
		case ev.SpanKind == kindServe && ev.Why == shedErr:
			shed++
		}
	}
	faults := 0.0
	for name, v := range r.coord {
		if strings.HasPrefix(name, "fleet_worker_faults_total") {
			faults += float64(v)
		}
	}
	searches := count("eval_layer_searches_total")
	coordSearches := 0.0
	if r.coord != nil {
		coordSearches = searches
	}
	trials := count("eval_cost_calls_total") + count("eval_lb_pruned_total")
	lookups := count("eval_layer_cache_hits_total") + count("eval_layer_dedups_total") +
		count("eval_persist_hits_total") + searches
	persistLookups := count("eval_persist_hits_total") + count("eval_persist_misses_total")
	shards := float64(r.coord["fleet_shards_dispatched_total"])
	local := float64(r.coord["fleet_shards_local_total"])

	return map[string]float64{
		"dse.self_s":         selfTime(r.events, kindDSE),
		"dse.batches":        batches,
		"dse.unique_designs": designs,
		"dse.repeat_steps":   repeats,

		"accelmodel.calls":       float64(len(sp[kindAccelModel])),
		"accelmodel.busy_s":      sum(sp[kindAccelModel]),
		"accelmodel.call_us_p50": percentile(sp[kindAccelModel], 0.50) * 1e6,
		"accelmodel.call_us_p99": percentile(sp[kindAccelModel], 0.99) * 1e6,

		"search.batch_s":          batchWall,
		"search.points_per_batch": ratio(points, batches),
		"search.workers":          float64(workers),
		"search.parallelism":      ratio(sum(sp[kindEval]), batchWall),

		"eval.calls":               float64(len(sp[kindEval])),
		"eval.busy_s":              sum(sp[kindEval]),
		"eval.memo_hit_ratio":      ratio(count("eval_design_cache_hits_total")+count("eval_inflight_dedups_total"), float64(len(sp[kindEval]))),
		"eval.design_ms_p50":       hist("eval_design_seconds").Quantile(0.50) * 1e3,
		"eval.design_ms_p95":       hist("eval_design_seconds").Quantile(0.95) * 1e3,
		"eval.layer_lookups":       lookups,
		"eval.layer_searches":      searches,
		"eval.layer_hit_ratio":     ratio(lookups-searches, lookups),
		"eval.layer_search_s":      hist("eval_layer_search_seconds").Sum(),
		"eval.layer_search_us_p50": hist("eval_layer_search_seconds").Quantile(0.50) * 1e6,
		"eval.layer_search_us_p95": hist("eval_layer_search_seconds").Quantile(0.95) * 1e6,
		"eval.warm_probes":         count("eval_warm_probes_total"),
		"eval.warm_fallbacks":      count("eval_warm_fallbacks_total"),

		// A candidate a mapping search examines is either costed on the
		// Tier-1 path or skipped by its lower bound. eval_map_trials_total
		// is not used: it credits every design with its layers' trials,
		// including layers answered from a cache without any search.
		"mapping.trials":      trials,
		"mapping.lb_pruned":   count("eval_lb_pruned_total"),
		"mapping.prune_ratio": ratio(count("eval_lb_pruned_total"), trials),

		"perf.tier1_calls": count("eval_cost_calls_total"),
		"perf.tier2_calls": count("eval_full_evaluations_total"),
		"perf.tier2_share": ratio(count("eval_full_evaluations_total"), count("eval_cost_calls_total")),

		"evalcache.open_s":         sum(sp[kindEvalcache]),
		"evalcache.records_loaded": float64(r.storeLoaded),
		"evalcache.hits":           count("eval_persist_hits_total"),
		"evalcache.misses":         count("eval_persist_misses_total"),
		"evalcache.lookups":        persistLookups,
		"evalcache.hit_ratio":      ratio(count("eval_persist_hits_total"), persistLookups),

		"fleet.prepare_s":            sum(prepare),
		"fleet.prepare_ms_p50":       percentile(prepare, 0.50) * 1e3,
		"fleet.prepare_ms_p95":       percentile(prepare, 0.95) * 1e3,
		"fleet.shards":               shards,
		"fleet.records_installed":    float64(r.coord["fleet_records_installed_total"]),
		"fleet.coordinator_searches": coordSearches,
		"fleet.retries":              float64(r.coord["fleet_retries_total"]),
		"fleet.local_fallbacks":      local,
		"fleet.fallback_ratio":       ratio(local, shards),
		"fleet.hedges":               float64(r.coord["fleet_hedges_total"]),
		"fleet.steals":               float64(r.coord["fleet_leases_stolen_total"]),
		"fleet.worker_faults":        faults,

		"serve.eval_requests":          float64(len(sp[kindServe])),
		"serve.eval_busy_s":            sum(sp[kindServe]),
		"serve.eval_ms_p50":            percentile(sp[kindServe], 0.50) * 1e3,
		"serve.eval_ms_p95":            percentile(sp[kindServe], 0.95) * 1e3,
		"serve.shed_429":               shed,
		"serve.eval_queue_wait_ms_p95": r.workerQuantile("serve_eval_queue_wait_seconds", 0.95) * 1e3,

		"go.gc_cycles":   float64(r.gcCycles),
		"go.gc_pause_ms": float64(r.gcPauseNs) / 1e6,
	}
}

// spansByKind groups span durations (seconds) by span kind.
func spansByKind(events []obs.Event) map[string][]float64 {
	out := map[string][]float64{}
	for _, ev := range events {
		if ev.Kind == obs.KindSpan {
			out[ev.SpanKind] = append(out[ev.SpanKind], float64(ev.WallNs)/1e9)
		}
	}
	return out
}

// selfTime sums, over every span of the given kind, the part of its interval
// that none of its child spans covers, in seconds. Children may overlap one
// another (a batch evaluates on several goroutines), so coverage is the union
// of their intervals, not the sum of their durations.
func selfTime(events []obs.Event, kind string) float64 {
	type interval struct{ lo, hi int64 }
	children := map[[2]string][]interval{}
	for _, ev := range events {
		if ev.Kind == obs.KindSpan && ev.Parent != "" {
			k := [2]string{ev.Trace, ev.Parent}
			children[k] = append(children[k], interval{ev.StartNs, ev.StartNs + ev.WallNs})
		}
	}
	var self int64
	for _, ev := range events {
		if ev.Kind != obs.KindSpan || ev.SpanKind != kind {
			continue
		}
		lo, hi := ev.StartNs, ev.StartNs+ev.WallNs
		cs := children[[2]string{ev.Trace, ev.Span}]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, end := int64(0), lo
		for _, c := range cs {
			a, b := max(c.lo, end), min(c.hi, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self += hi - lo - covered
	}
	return float64(self) / 1e9
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// percentile returns the nearest-rank q-quantile of vs (0 when empty).
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medians returns, for every key, the median of its values across samples.
func medians(samples []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range samples[0] {
		vs := make([]float64, len(samples))
		for i, s := range samples {
			vs[i] = s[k]
		}
		out[k] = median(vs)
	}
	return out
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
