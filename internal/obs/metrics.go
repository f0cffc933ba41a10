package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are atomic and
// nil-safe (a nil counter ignores writes and reads zero), so instrumented
// code never needs a registry-presence branch.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float-valued metric that can move both ways (cache occupancy,
// hit ratios). Atomic and nil-safe like Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket latency histogram: observations are counted
// into ascending upper-bound buckets plus an overflow bucket, with the exact
// sum, count, and maximum tracked alongside so tail quantiles beyond the
// last bound stay honest. Atomic and nil-safe.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	maxBits atomic.Uint64 // float64 bits, CAS-updated
}

// DurationBuckets is the default bucket layout for seconds-valued latency
// histograms: exponential from 100µs to ~52s, fine enough to separate a
// cache hit from a mapping search from a batch.
func DurationBuckets() []float64 {
	b := make([]float64, 0, 20)
	for v := 0.0001; v < 60; v *= 2 {
		b = append(b, v)
	}
	return b
}

// newHistogram builds a histogram over the given ascending upper bounds
// (nil selects DurationBuckets).
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample (in the histogram's native unit, seconds for
// latency histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// Max of an empty histogram reads 0, so non-negative latency samples
	// only ever raise it.
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation inside
// the bucket that holds it; samples landing in the overflow bucket resolve
// to the exact tracked maximum. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == len(h.bounds) {
				return h.Max()
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if hi > h.Max() {
				hi = h.Max()
			}
			if hi < lo {
				return h.bounds[i]
			}
			return lo + (hi-lo)*((rank-cum)/n)
		}
		cum += n
	}
	return h.Max()
}

// snapshotBuckets returns (upper bound, cumulative count) pairs in
// Prometheus _bucket form, ending with the +Inf bucket.
func (h *Histogram) snapshotBuckets() ([]float64, []uint64) {
	cum := uint64(0)
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	return h.bounds, counts
}

// merge folds src's observations into h (same bucket layout assumed; the
// registry guarantees it for same-named histograms it created).
func (h *Histogram) merge(src *Histogram) {
	if src == nil {
		return
	}
	for i := range src.counts {
		if i < len(h.counts) {
			h.counts[i].Add(src.counts[i].Load())
		}
	}
	h.count.Add(src.count.Load())
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+src.Sum())) {
			break
		}
	}
	if m := src.Max(); m > h.Max() {
		h.maxBits.Store(math.Float64bits(m))
	}
}

// Registry is a goroutine-safe collection of named metrics. Metric names
// follow the Prometheus convention (`eval_design_evaluations_total`); a
// label-carrying series is named with its label set inline
// (`dse_mitigation_rule_firings_total{rule="scale-pes"}`) and is grouped
// under its base name in the Prometheus dump. Lookup is get-or-create, so
// instrumented code holds direct metric pointers and the hot path never
// touches the registry lock.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// slab amortizes counter allocation: instrumented components resolve
	// a dozen-plus counters at construction time (eval.New does), and one
	// chunk allocation covers them all.
	slab []Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter, 24),
		gauges:     map[string]*Gauge{},
		histograms: make(map[string]*Histogram, 4),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe: a
// nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		if len(r.slab) == 0 {
			r.slab = make([]Counter, 16)
		}
		c = &r.slab[0]
		r.slab = r.slab[1:]
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (nil selects DurationBuckets) on first use; an existing histogram
// keeps its original buckets. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Merge folds every metric of src into r, creating missing metrics (with
// src's bucket layouts) as needed. Campaigns use it to aggregate per-run
// registries into one campaign-level registry. Nil-safe on both sides.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	type hsrc struct {
		name string
		h    *Histogram
	}
	var cs []struct {
		name string
		v    int64
	}
	var gs []struct {
		name string
		v    float64
	}
	var hs []hsrc
	for name, c := range src.counters {
		cs = append(cs, struct {
			name string
			v    int64
		}{name, c.Value()})
	}
	for name, g := range src.gauges {
		gs = append(gs, struct {
			name string
			v    float64
		}{name, g.Value()})
	}
	for name, h := range src.histograms {
		hs = append(hs, hsrc{name, h})
	}
	src.mu.Unlock()
	for _, c := range cs {
		r.Counter(c.name).Add(c.v)
	}
	for _, g := range gs {
		r.Gauge(g.name).Set(g.v)
	}
	for _, h := range hs {
		r.Histogram(h.name, h.h.bounds).merge(h.h)
	}
}

// HistogramSnapshot is the exported view of one histogram in Snapshot.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observations.
	Sum float64 `json:"sum"`
	// Max is the largest observation.
	Max float64 `json:"max"`
	// P50 and P95 are interpolated quantiles.
	P50 float64 `json:"p50"`
	// P95 is the interpolated 95th-percentile observation.
	P95 float64 `json:"p95"`
}

// Snapshot returns a point-in-time copy of every metric: counters and gauges
// by value, histograms as HistogramSnapshot. The result is JSON-marshalable,
// which is what Expvar publishes.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = HistogramSnapshot{
			Count: h.Count(), Sum: h.Sum(), Max: h.Max(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95),
		}
	}
	return out
}

// Expvar adapts the registry to the standard expvar protocol: publish the
// returned Func under a name (`expvar.Publish("xdse", reg.Expvar())`) and
// /debug/vars serves the live snapshot.
func (r *Registry) Expvar() expvar.Func {
	return expvar.Func(func() any { return r.Snapshot() })
}

// splitSeries separates a series name into its base metric name and the
// inline label block ("" when unlabeled).
func splitSeries(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// formatMetricValue renders a sample in Prometheus float syntax.
func formatMetricValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelJoin merges an inline label block with one extra label pair.
func labelJoin(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus dumps every metric in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` header per base metric name,
// deterministically sorted series, histograms expanded into cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type series struct {
		name  string
		kind  string // "counter" | "gauge" | "histogram"
		value float64
		h     *Histogram
	}
	var all []series
	for name, c := range r.counters {
		all = append(all, series{name: name, kind: "counter", value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		all = append(all, series{name: name, kind: "gauge", value: g.Value()})
	}
	for name, h := range r.histograms {
		all = append(all, series{name: name, kind: "histogram", h: h})
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	typed := map[string]bool{}
	for _, s := range all {
		base, labels := splitSeries(s.name)
		if !typed[base] {
			typed[base] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, s.kind); err != nil {
				return err
			}
		}
		switch s.kind {
		case "histogram":
			bounds, cum := s.h.snapshotBuckets()
			for i, c := range cum {
				le := "+Inf"
				if i < len(bounds) {
					le = formatMetricValue(bounds[i])
				}
				lb := labelJoin(labels, `le="`+le+`"`)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, lb, c); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatMetricValue(s.h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, s.h.Count()); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", base, labels, formatMetricValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidatePrometheus checks a Prometheus text dump for well-formedness:
// every non-comment line must be `<name>[{labels}] <float>` with a legal
// metric name, and every series must be preceded by a # TYPE header for its
// base name. It is the CI gate for -metrics-out output.
func ValidatePrometheus(data string) error {
	typed := map[string]bool{}
	lineNo := 0
	for _, text := range strings.Split(data, "\n") {
		lineNo++
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
				}
				typed[fields[2]] = true
			}
			continue
		}
		name := text
		if i := strings.IndexByte(text, '{'); i >= 0 {
			j := strings.IndexByte(text, '}')
			if j < i {
				return fmt.Errorf("line %d: unterminated label block", lineNo)
			}
			name = text[:i]
			text = name + text[j+1:]
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return fmt.Errorf("line %d: want `name value`, got %q", lineNo, text)
		}
		name = fields[0]
		if !validMetricName(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return fmt.Errorf("line %d: invalid sample value %q", lineNo, fields[1])
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			return fmt.Errorf("line %d: series %q has no # TYPE header", lineNo, name)
		}
	}
	return nil
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
