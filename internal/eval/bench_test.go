package eval

import (
	"testing"

	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// benchEvalConfig is the benchmark configuration: pruned-mapping codesign on
// ResNet18, the paper's running example.
func benchEvalConfig(s *arch.Space) Config {
	return Config{
		Space:       s,
		Models:      []*workload.Model{workload.ResNet18()},
		Constraints: EdgeConstraints(),
		Mode:        PrunedMappings,
		MapTrials:   200,
		Seed:        1,
		Workers:     1, // isolate cache effects from pool parallelism
	}
}

// BenchmarkEvaluateDesign measures a repeated-sub-key campaign (every design
// recurs under a mapping-irrelevant dummy parameter, as frequency or DRAM
// energy knobs would recur in a larger template) with a fresh evaluator per
// design ("cold": every layer search runs, lower-bound pruned as in
// production) and one evaluator for the whole campaign ("warm": every layer
// search still runs, replaying the walk memo of the designs before it).
func BenchmarkEvaluateDesign(b *testing.B) {
	s := spaceWithDummyParam(3)
	pts := campaignPoints(s, 24)
	cfg := benchEvalConfig(s)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, pt := range pts {
				New(cfg).Evaluate(pt)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := New(cfg)
			for _, pt := range pts {
				e.Evaluate(pt)
			}
		}
	})
}

// BenchmarkEvaluateLayer measures one layer's lookup through the evaluator:
// a cold search on a fresh evaluator every call versus an installed record
// answering repeats with a derived breakdown.
func BenchmarkEvaluateLayer(b *testing.B) {
	s := arch.EdgeSpace()
	d := s.MustDecode(compatiblePoint(s))
	sub := perf.MappingSubKey(d)
	b.Run("cold", func(b *testing.B) {
		cfg := benchEvalConfig(s)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := New(cfg)
			e.layerResult(d, sub, &e.slots[1])
		}
	})
	b.Run("warm", func(b *testing.B) {
		e := New(benchEvalConfig(s))
		sl := &e.slots[1]
		dec, _ := e.layerResult(d, sub, sl)
		e.InstallRecords([]evalcache.Record{{Key: e.persistKey(sl.shape, sub, int64(sl.index)), Entry: dec}})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.layerResult(d, sub, &e.slots[1])
		}
	})
}
