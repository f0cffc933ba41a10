package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"unsafe"

	"xdse/internal/arch"
	"xdse/internal/eval"
	"xdse/internal/evalcache"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// evalBody renders a /eval body the way a worker does: hdr with its record
// count set to the lines that follow it.
func evalBody(tb testing.TB, hdr EvalHeader, lines []byte) []byte {
	tb.Helper()
	hdr.Records = bytes.Count(lines, []byte{'\n'})
	head, err := json.Marshal(hdr)
	if err != nil {
		tb.Fatal(err)
	}
	return append(append(head, '\n'), lines...)
}

// randomRecords appends n random-mode record lines for the evaluator
// configuration randomConfig builds, all of one shape of its model and one
// sub-key under the distinct salts of layer indices first, first+1, ...:
// every body of them holds the same four strings, so an allocation per
// record shows.
func randomRecords(tb testing.TB, dst []byte, first, n int) []byte {
	tb.Helper()
	for i := first; i < first+n; i++ {
		rec := evalcache.Record{
			Key:   evalcache.Key{Shape: "0|64,64,56,56,3,3|1", Sub: "pe256,l1:128", Mode: eval.RandomMappings.String(), Trials: 60, Salt: 1_000_003 + int64(i)},
			Entry: evalcache.Entry{Found: true, Trials: 60},
		}
		var err error
		if dst, err = evalcache.AppendRecord(dst, rec, perf.ModelVersion()); err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// randomConfig is the coordinator configuration whose keys randomRecords
// writes: random mappings, 60 trials, seed 1.
func randomConfig() eval.Config {
	return eval.Config{
		Space:       arch.EdgeSpace(),
		Models:      []*workload.Model{workload.ResNet18()},
		Constraints: eval.EdgeConstraints(),
		Mode:        eval.RandomMappings,
		MapTrials:   60,
		Seed:        1,
	}
}

// TestDecodeEvalBody: a body decodes to its header and its records in order;
// a line that fails its CRC or carries another version is dropped and
// counted; a body whose complete lines differ from the header's count, one
// without a final newline, and one without a readable header are errors.
func TestDecodeEvalBody(t *testing.T) {
	v := perf.ModelVersion()
	lines := randomRecords(t, nil, 0, 3)
	body := evalBody(t, EvalHeader{ModelVersion: v, Evaluated: 2}, lines)
	hdr, recs, rejected, err := DecodeEvalBody(body, v, nil)
	if err != nil || rejected != 0 {
		t.Fatalf("valid body: %v, %d rejected", err, rejected)
	}
	if hdr.ModelVersion != v || hdr.Evaluated != 2 || hdr.Records != 3 || len(recs) != 3 {
		t.Fatalf("valid body read as %+v with %d records", hdr, len(recs))
	}
	for i, line := range bytes.SplitAfter(lines, []byte{'\n'})[:3] {
		want, _, err := evalcache.DecodeRecord(line, nil, nil)
		if err != nil || recs[i] != want {
			t.Fatalf("record %d read as %+v, want %+v (%v)", i, recs[i], want, err)
		}
	}
	// The records share the strings of one intern table.
	if unsafe.StringData(recs[0].Key.Sub) != unsafe.StringData(recs[2].Key.Sub) {
		t.Fatal("two records of one body hold copies of one sub-key")
	}
	// Under the coordinator's known table they hold its shape, mode and
	// version, which decoding leaves as it was.
	known := eval.New(randomConfig()).RecordStrings()
	size := len(known)
	_, kn, rejected, err := DecodeEvalBody(body, v, known)
	if err != nil || rejected != 0 || len(kn) != 3 || len(known) != size {
		t.Fatalf("valid body under a known table: %v, %d rejected, %d records, table of %d entries, was %d", err, rejected, len(kn), len(known), size)
	}
	for i, rec := range kn {
		k := rec.Key
		if rec != recs[i] {
			t.Fatalf("record %d reads %+v under a known table, %+v without", i, rec, recs[i])
		}
		if unsafe.StringData(k.Shape) != unsafe.StringData(known[k.Shape]) || unsafe.StringData(k.Mode) != unsafe.StringData(known[k.Mode]) {
			t.Fatalf("record %d holds copies of the known shape and mode", i)
		}
		if unsafe.StringData(k.Sub) != unsafe.StringData(kn[0].Key.Sub) {
			t.Fatal("two records of one body hold copies of one sub-key under a known table")
		}
	}

	flipped := bytes.Clone(body)
	flipped[bytes.IndexByte(flipped, '\n')+20] ^= 1 // inside the first record line
	if _, recs, rejected, err := DecodeEvalBody(flipped, v, nil); err != nil || rejected != 1 || len(recs) != 2 {
		t.Fatalf("one flipped line: %v, %d rejected, %d records; want nil, 1, 2", err, rejected, len(recs))
	}
	if _, recs, rejected, err := DecodeEvalBody(body, "another-version", nil); err != nil || rejected != 3 || len(recs) != 0 {
		t.Fatalf("skewed records: %v, %d rejected, %d records; want nil, 3, 0", err, rejected, len(recs))
	}
	empty := evalBody(t, EvalHeader{ModelVersion: v, Evaluated: 1}, nil)
	if _, recs, _, err := DecodeEvalBody(empty, v, nil); err != nil || len(recs) != 0 {
		t.Fatalf("body of no records: %v, %d records", err, len(recs))
	}

	head := body[:bytes.IndexByte(body, '\n')+1]
	for name, bad := range map[string][]byte{
		"torn short":       body[:len(body)-len(lines)/2],
		"no final newline": body[:len(body)-1],
		"one line short":   body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1],
		"one line over":    append(bytes.Clone(body), randomRecords(t, nil, 9, 1)...),
		"header only":      head,
		"no header line":   head[:len(head)-1],
		"bad header":       append([]byte("{\"records\":\"three\"}\n"), lines...),
		"negative count":   append([]byte("{\"records\":-1}\n"), lines...),
		"empty":            nil,
	} {
		if _, _, _, err := DecodeEvalBody(bad, v, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestTornBodyIsRetried: a worker whose body is torn — fewer record lines
// than its header counts, or a last line without its newline — has faulted
// transiently: the shard is retried, and the retry's records are the ones
// returned.
func TestTornBodyIsRetried(t *testing.T) {
	v := perf.ModelVersion()
	body := evalBody(t, EvalHeader{ModelVersion: v, Evaluated: 1}, randomRecords(t, nil, 0, 4))
	for name, torn := range map[string][]byte{
		"short":      body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1],
		"no newline": body[:len(body)-1],
	} {
		t.Run(name, func(t *testing.T) {
			var calls atomic.Int64
			handler := func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					w.Write(torn)
					return
				}
				w.Write(body)
			}
			tsA := fakeWorker(t, handler)
			tsB := fakeWorker(t, handler)
			opts := hedgeTestOptions()
			opts.HedgeAfter = -1
			c, err := New([]string{tsA.Listener.Addr().String(), tsB.Listener.Addr().String()}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			recs := c.runShard(context.Background(), testBase, shard{key: "m|p1", points: []string{"p1"}})
			if len(recs) != 4 {
				t.Fatalf("shard returned %d records after a torn body, want the retry's 4", len(recs))
			}
			m := c.Metrics()
			if n := m.Counter("fleet_retries_total").Value(); n != 1 {
				t.Errorf("fleet_retries_total = %d, want 1", n)
			}
			if n := m.Counter("fleet_permanent_faults_total").Value(); n != 0 {
				t.Errorf("a torn body recorded %d permanent faults, want 0", n)
			}
			if n := m.Counter("fleet_records_rejected_total").Value(); n != 0 {
				t.Errorf("fleet_records_rejected_total = %d, want 0: a torn body is refused whole", n)
			}
		})
	}
}

// TestShardRecordsAllocs pins the coordinator's decode and install of one
// shard's body to a number of allocations that does not grow with its
// records: at 10 and at 100 records, the body's lines are decoded where
// they lie, their shape, mode and version read from the coordinator's
// known table and their sub-key interned once, and the record map takes a
// pointer to each decoded entry. Each run installs records no earlier run
// installed, into one evaluator, so the record map's growth is spread over
// the runs.
func TestShardRecordsAllocs(t *testing.T) {
	const runs = 50
	v := perf.ModelVersion()
	counts := map[int]float64{}
	for _, n := range []int{10, 100} {
		ev := eval.New(randomConfig())
		known := ev.RecordStrings()
		bodies := make([][]byte, runs+1) // AllocsPerRun runs once more to warm up
		for i := range bodies {
			bodies[i] = evalBody(t, EvalHeader{ModelVersion: v, Evaluated: 1}, randomRecords(t, nil, i*n, n))
		}
		next := 0
		counts[n] = testing.AllocsPerRun(runs, func() {
			_, recs, rejected, err := DecodeEvalBody(bodies[next], v, known)
			next++
			if err != nil || rejected != 0 || ev.InstallRecords(recs) != n {
				t.Fatalf("body of %d records: %v, %d rejected", n, err, rejected)
			}
		})
	}
	if counts[100] > counts[10] || counts[10] > 8 {
		t.Errorf("decoding and installing a shard allocates %.0f times at 10 records and %.0f at 100; want the same, at most 8",
			counts[10], counts[100])
	}
}

// FuzzDecodeEvalBody: DecodeEvalBody parses bytes another process sent. It
// must never panic; on success it must account for exactly the header's
// count of lines, each either returned or rejected, and return a record
// only where the record decoder accepts that line under the version asked
// for, as the record that decoder reads. It decodes under the known table a
// coordinator of the records' configuration builds.
func FuzzDecodeEvalBody(f *testing.F) {
	v := perf.ModelVersion()
	known := eval.New(randomConfig()).RecordStrings()
	body := evalBody(f, EvalHeader{ModelVersion: v, Evaluated: 2}, randomRecords(f, nil, 0, 3))
	for _, n := range []int{len(body), len(body) - 1, len(body) / 2, bytes.IndexByte(body, '\n') + 1, 0} {
		f.Add(body[:n])
	}
	flipped := bytes.Clone(body)
	flipped[len(flipped)-10] ^= 1
	f.Add(flipped)
	f.Add([]byte("{\"records\":1,\"spans\":[]}\n\n"))
	f.Add([]byte("{\"records\":99999999999}\nx\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		hdr, recs, rejected, err := DecodeEvalBody(body, v, known)
		if err != nil {
			return
		}
		if len(recs)+rejected != hdr.Records {
			t.Fatalf("%d records and %d rejected, header counts %d", len(recs), rejected, hdr.Records)
		}
		lines := bytes.SplitAfter(body[bytes.IndexByte(body, '\n')+1:], []byte{'\n'})
		if len(lines) != hdr.Records+1 || len(lines[hdr.Records]) != 0 {
			t.Fatalf("accepted a body of %d line pieces under a count of %d", len(lines), hdr.Records)
		}
		i := 0
		for _, line := range lines[:hdr.Records] {
			rec, version, err := evalcache.DecodeRecord(line, nil, nil)
			if err != nil || version != v {
				continue
			}
			if i >= len(recs) || recs[i] != rec {
				t.Fatalf("line %q reads %+v; the body's record %d does not match", line, rec, i)
			}
			i++
		}
		if i != len(recs) {
			t.Fatalf("returned %d records, the record decoder accepts %d lines", len(recs), i)
		}
	})
}

// BenchmarkShardRecords measures one shard's record path, both ends: a
// worker appends the records of five ResNet18 designs (45 records; a
// fleet-2w shard carries 44 on average) and writes them after a header, and
// the coordinator decodes that body and installs its records into a fresh
// evaluator (whose construction is not timed).
func BenchmarkShardRecords(b *testing.B) {
	cfg := randomConfig()
	cfg.Mode = eval.PrunedMappings
	worker := eval.New(cfg)
	s := cfg.Space
	var results []*eval.Result
	for i := 0; i < 5; i++ {
		pt := s.Initial()
		pt[arch.PPEs] = s.Clamp(arch.PPEs, 1+i)
		results = append(results, worker.Evaluate(pt))
	}
	v := perf.ModelVersion()
	lines, n := worker.AppendRecords(nil, results)
	if n != 45 {
		b.Fatalf("five designs exported %d records, want 45", n)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(lines)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		coord := eval.New(cfg)
		known := coord.RecordStrings() // built once per Prepare, not per shard
		b.StartTimer()
		lines, n := worker.AppendRecords(nil, results)
		body := evalBody(b, EvalHeader{ModelVersion: v, Evaluated: len(results)}, lines)
		_, recs, rejected, err := DecodeEvalBody(body, v, known)
		if err != nil || rejected != 0 {
			b.Fatalf("decode: %v, %d rejected", err, rejected)
		}
		if got := coord.InstallRecords(recs); got != n {
			b.Fatalf("installed %d of %d records", got, n)
		}
	}
}
