package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Value() != 0 {
		t.Error("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram must read zeroes")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Error("nil registry must hand out nil metrics")
	}
	r.Merge(NewRegistry())
}

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", c.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 3, 3, 6, 20} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if got := h.Sum(); math.Abs(got-38.5) > 1e-9 {
		t.Errorf("sum = %v, want 38.5", got)
	}
	if h.Max() != 20 {
		t.Errorf("max = %v, want 20", h.Max())
	}
	// The 8th-rank sample lands in the overflow bucket: quantile resolves
	// to the exact tracked maximum, never a made-up bound.
	if got := h.Quantile(1); got != 20 {
		t.Errorf("p100 = %v, want exact max 20", got)
	}
	// p50 (rank 4) lands in the (2,4] bucket.
	if got := h.Quantile(0.5); got <= 2 || got > 4 {
		t.Errorf("p50 = %v, want within (2,4]", got)
	}
	if got := h.Quantile(0.5); h.Quantile(0.95) < got {
		t.Errorf("p95 %v < p50 %v", h.Quantile(0.95), got)
	}
	h.Observe(math.NaN()) // ignored, not poisoned
	if h.Count() != 8 {
		t.Error("NaN observation must be dropped")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total")
	c2 := r.Counter("a_total")
	if c1 != c2 {
		t.Error("same name must return the same counter")
	}
	h1 := r.Histogram("h_seconds", []float64{1, 2})
	h2 := r.Histogram("h_seconds", []float64{99})
	if h1 != h2 {
		t.Error("an existing histogram keeps its original buckets")
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n_total").Add(3)
	b.Counter("n_total").Add(4)
	b.Counter("only_b_total").Add(1)
	b.Gauge("g").Set(2.5)
	a.Histogram("h_seconds", []float64{1, 2}).Observe(0.5)
	b.Histogram("h_seconds", []float64{1, 2}).Observe(1.5)

	a.Merge(b)
	if got := a.Counter("n_total").Value(); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("only_b_total").Value(); got != 1 {
		t.Errorf("merge must create missing counters, got %d", got)
	}
	if got := a.Gauge("g").Value(); got != 2.5 {
		t.Errorf("merged gauge = %v, want 2.5", got)
	}
	h := a.Histogram("h_seconds", nil)
	if h.Count() != 2 || h.Max() != 1.5 {
		t.Errorf("merged histogram count=%d max=%v, want 2/1.5", h.Count(), h.Max())
	}
}

func TestSnapshotMarshalsToJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	r.Gauge("g").Set(1.5)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot must be JSON-marshalable (the expvar contract): %v", err)
	}
	for _, want := range []string{`"c_total":2`, `"g":1.5`, `"count":1`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("snapshot JSON missing %s: %s", want, data)
		}
	}
	if got := r.Expvar().String(); !strings.Contains(got, "c_total") {
		t.Errorf("expvar view missing counter: %s", got)
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	r := NewRegistry()
	r.Counter("eval_design_evaluations_total").Add(12)
	r.Counter(`dse_mitigation_rule_firings_total{rule="scale-pes"}`).Add(3)
	r.Counter(`dse_mitigation_rule_firings_total{rule="spm-grow"}`).Add(1)
	r.Gauge("dse_incumbent_objective").Set(3.25)
	h := r.Histogram("eval_layer_search_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := ValidatePrometheus(out); err != nil {
		t.Fatalf("dump failed its own validation: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE dse_mitigation_rule_firings_total counter",
		`dse_mitigation_rule_firings_total{rule="scale-pes"} 3`,
		"# TYPE eval_layer_search_seconds histogram",
		`eval_layer_search_seconds_bucket{le="+Inf"} 2`,
		"eval_layer_search_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	// One # TYPE header per base name, even with two labeled series.
	if got := strings.Count(out, "# TYPE dse_mitigation_rule_firings_total"); got != 1 {
		t.Errorf("%d TYPE headers for the rule counter, want 1", got)
	}
	// The dump is deterministically sorted: two renders agree.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if b2.String() != out {
		t.Error("two renders of the same registry differ")
	}
}

func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE header":  "orphan_total 3\n",
		"bad value":       "# TYPE x counter\nx notanumber\n",
		"bad metric name": "# TYPE 9bad counter\n9bad 1\n",
		"unknown type":    "# TYPE x wibble\nx 1\n",
	}
	for name, dump := range cases {
		if err := ValidatePrometheus(dump); err == nil {
			t.Errorf("%s: validation passed %q", name, dump)
		}
	}
	ok := "# TYPE x counter\nx 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n"
	if err := ValidatePrometheus(ok); err != nil {
		t.Errorf("well-formed dump rejected: %v", err)
	}
}

func TestMetricsSinkFoldsEvents(t *testing.T) {
	reg := NewRegistry()
	s := NewMetricsSink(reg)
	if NewMetricsSink(nil) != nil {
		t.Error("nil registry must yield a nil Sink interface")
	}
	s.Emit(Event{Kind: KindMitigationProposed, Rule: "scale-pes"})
	s.Emit(Event{Kind: KindMitigationProposed, Rule: "scale-pes"})
	s.Emit(Event{Kind: KindBottleneckIdentified, Factor: "T_dma"})
	s.Emit(Event{Kind: KindConstraintMitigation, Factor: "power"})
	s.Emit(Event{Kind: KindBatchEvaluated, Points: 5, Hits: 2, Misses: 3})
	s.Emit(Event{Kind: KindIncumbentImproved, Objective: 4.5})
	s.Emit(Event{Kind: KindConverged})

	checks := map[string]int64{
		`obs_events_total{kind="mitigation_proposed"}`:        2,
		`dse_mitigation_rule_firings_total{rule="scale-pes"}`: 2,
		`dse_bottleneck_factor_total{factor="T_dma"}`:         1,
		`dse_constraint_mitigation_total{factor="power"}`:     1,
		"dse_batch_points_total":                              5,
		"dse_batch_hits_total":                                2,
		"dse_batch_misses_total":                              3,
		"dse_incumbent_improvements_total":                    1,
		"dse_convergences_total":                              1,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("dse_incumbent_objective").Value(); got != 4.5 {
		t.Errorf("incumbent gauge = %v, want 4.5", got)
	}
}
