package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"xdse/internal/exp"
	"xdse/internal/workload"
)

// smallCampaign is a one-model, small-budget version of the benchmark's
// campaign, quick enough to run every workload in a test.
func smallCampaign(t *testing.T) (exp.Config, exp.Technique) {
	t.Helper()
	cfg, tech := campaignInputs()
	cfg.CodesignBudget = 12
	cfg.MapTrials = 60
	for _, m := range workload.Suite() {
		if m.Name == "ResNet18" {
			cfg.Models = []*workload.Model{m}
		}
	}
	if len(cfg.Models) != 1 {
		t.Fatal("ResNet18 missing from the suite")
	}
	return cfg, tech
}

// TestProbeIsResultNeutral runs a traced pass of every workload and checks
// its fingerprints against the plain single-node reference: the wrappers
// must observe without changing a single search result. It also checks
// that each workload's layers left spans and that the pass yields exactly
// the catalogued metrics.
func TestProbeIsResultNeutral(t *testing.T) {
	cfg, tech := smallCampaign(t)
	for _, name := range []string{wlCold, wlWarm, wlFleet} {
		t.Run(name, func(t *testing.T) {
			b, err := newBench(name, cfg, tech, 1, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.refFailures) > 0 {
				t.Fatalf("reference failed: %v", b.refFailures)
			}
			r, err := b.pass(true)
			if err != nil {
				t.Fatal(err)
			}
			if bad := b.check(r.runs); len(bad) > 0 {
				t.Fatalf("traced pass differs from the reference: %v", bad)
			}
			kinds := spansByKind(r.events)
			want := []string{kindDSE, kindSearch, kindEval, kindAccelModel}
			switch name {
			case wlWarm:
				want = append(want, kindEvalcache)
			case wlFleet:
				want = append(want, kindFleet, kindServe)
			}
			for _, k := range want {
				if len(kinds[k]) == 0 {
					t.Errorf("no %s spans", k)
				}
			}

			e2e, layers := endToEndOf(r), layersOf(r, cfg.Workers)
			layers["trace.untraced_campaign_s"] = 0
			layers["trace.overhead_ratio"] = 0
			assertSameNames(t, "end-to-end", e2e, endToEnd)
			assertSameNames(t, "per-layer", layers, perLayer)

			searches := layers["eval.layer_searches"] + layers["mapping.trials"] + layers["perf.tier1_calls"]
			if name == wlWarm && searches != 0 {
				t.Errorf("warm pass searched: %v layer searches, %v trials, %v tier-1 calls",
					layers["eval.layer_searches"], layers["mapping.trials"], layers["perf.tier1_calls"])
			}
			if name == wlCold && (layers["eval.layer_searches"] == 0 || layers["mapping.trials"] == 0 || layers["perf.tier1_calls"] == 0) {
				t.Errorf("cold pass did not search: %v", layers)
			}
		})
	}
}

func assertSameNames(t *testing.T, what string, got map[string]float64, want []metric) {
	t.Helper()
	var g, w []string
	for k := range got {
		g = append(g, k)
	}
	for _, m := range want {
		w = append(w, m.name)
	}
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Fatalf("%s metrics computed %v, catalogued %v", what, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s metrics computed %v, catalogued %v", what, g, w)
		}
	}
}

// TestMetricNames checks every metric name's character set and uniqueness.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("bad metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
}

// TestRatiosHaveBases checks that every ratio names the printed count or
// time it divides by, and that nothing else claims a base.
func TestRatiosHaveBases(t *testing.T) {
	printed := map[string]metric{}
	for _, m := range perLayer {
		printed[m.name] = m
	}
	for _, m := range perLayer {
		if (m.unit == "ratio") != (m.base != "") {
			t.Errorf("%s: unit %q with base %q", m.name, m.unit, m.base)
			continue
		}
		if m.base == "" {
			continue
		}
		base, ok := printed[m.base]
		if !ok || base.unit == "ratio" {
			t.Errorf("%s: base %q is not a printed count or time", m.name, m.base)
		}
	}
	for _, m := range endToEnd {
		if m.unit == "ratio" || m.base != "" {
			t.Errorf("end-to-end %s is a ratio", m.name)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON holds BENCHMARK.json and the catalogue
// to each other, entry for entry and in order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := []string{wlCold, wlWarm, wlFleet}; len(names) != len(want) || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("workloads %v, want %v", names, want)
	}
	compare := func(what string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", what, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s #%d: BENCHMARK.json %s/%s/%s, catalogue %s/%s/%s", what, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s: bound %v, catalogue %v", m.name, g.Bound, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metric has a bound", m.name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}
