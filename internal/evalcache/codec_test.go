package evalcache

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdse/internal/checkpoint"
)

// parentLines returns the fixture's three parent-format JSON lines, one per
// mapper mode, without their newlines.
func parentLines(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent-records.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// TestRecordCodecRoundTrip checks that an AppendRecord line decodes to the
// same key, entry and version stamp, with or without its trailing newline
// and with or without an intern table: one key per mapper mode, extreme
// salts and a search that found nothing. Lines appended one after another
// into one buffer are the lines appended one per buffer.
func TestRecordCodecRoundTrip(t *testing.T) {
	var wire, want []byte
	const shape, sub = "0|64,64,56,56,3,3|1", "pe256,l1:128,l2:524288,noc16,bpc256/125,W:4x64,I:4x64,Ord:4x64,Owr:4x64"
	for _, rec := range []Record{
		{Key: testKey(3), Entry: testEntry(3)},
		{Key: Key{Shape: shape, Sub: sub, Mode: "fixed-dataflow"}, Entry: testEntry(0)},
		{Key: Key{Shape: shape, Sub: sub, Mode: "random-mappings", Trials: 200, Salt: 1_000_003}, Entry: testEntry(1)},
		{Key: Key{Shape: shape, Sub: sub, Mode: "random-mappings", Trials: 200, Salt: math.MinInt64}, Entry: testEntry(2)},
		{Key: Key{Shape: shape, Sub: sub, Mode: "pruned-mappings", Trials: 200, Salt: math.MaxInt64}, Entry: Entry{Trials: 200}},
	} {
		data, err := AppendRecord(nil, rec, "v-wire")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(string(data), "\n") {
			t.Fatalf("encoded record missing trailing newline: %q", data)
		}
		if len(data) > LineSizeHint(rec.Key, "v-wire") {
			t.Errorf("%d-byte line outgrew its %d-byte size hint", len(data), LineSizeHint(rec.Key, "v-wire"))
		}
		strs := map[string]string{}
		known := map[string]string{rec.Key.Shape: rec.Key.Shape, rec.Key.Mode: rec.Key.Mode, "v-wire": "v-wire"}
		for _, line := range [][]byte{data, data[:len(data)-1]} {
			for _, tables := range [][2]map[string]string{{nil, nil}, {nil, strs}, {known, strs}, {known, nil}} {
				got, version, err := DecodeRecord(line, tables[0], tables[1])
				if err != nil {
					t.Fatal(err)
				}
				if version != "v-wire" || got != rec {
					t.Fatalf("wire round trip: got %+v under %q, want %+v under v-wire", got, version, rec)
				}
			}
		}
		wire = append(wire, data...)
		if wire, err = AppendRecord(wire, rec, "v-wire"); err != nil {
			t.Fatal(err)
		}
		want = append(append(want, data...), data...)
	}
	if string(wire) != string(want) {
		t.Fatalf("lines appended into one buffer differ from lines appended alone:\n got  %q\n want %q", wire, want)
	}

	// Store lines carry a write stamp; EncodeRecord's carry zero.
	rec := Record{Key: testKey(1), Entry: testEntry(1)}
	data, err := encode(rec.Key, rec.Entry, "v-store", 1_700_000_000)
	if err != nil {
		t.Fatal(err)
	}
	key, ent, version, at, err := decode(data[:len(data)-1], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if key != rec.Key || ent != rec.Entry || version != "v-store" || at != 1_700_000_000 {
		t.Fatalf("store round trip: got %+v %+v %q at %d", key, ent, version, at)
	}
}

func TestRecordCodecRejectsCorruption(t *testing.T) {
	rec := Record{Key: testKey(1), Entry: testEntry(1)}
	data, err := AppendRecord(nil, rec, "v-wire")
	if err != nil {
		t.Fatal(err)
	}
	line := string(data)
	// Flip one payload byte: the CRC must catch it.
	mid := len(line) / 2
	corrupt := line[:mid] + "X" + line[mid+1:]
	if _, _, err := DecodeRecord([]byte(corrupt), nil, nil); err == nil {
		t.Fatal("decode accepted a corrupted record")
	}
	if _, _, err := DecodeRecord([]byte("not a record at all"), nil, nil); err == nil {
		t.Fatal("decode accepted garbage")
	}
	for _, c := range malformedPayloads(strings.TrimSuffix(line[9:], "\n")) {
		if _, _, err := DecodeRecord(checkpoint.FrameLine([]byte(c[1])), nil, nil); err == nil {
			t.Errorf("%s: decode accepted %q", c[0], c[1])
		}
	}
}

// malformedPayloads returns well-framed payloads the layout does not allow,
// each one edit away from the valid payload given, as (name, payload) pairs.
func malformedPayloads(payload string) [][2]string {
	fields := strings.Split(payload, " ")
	swap := func(i int, v string) string {
		f := append([]string(nil), fields...)
		f[i] = v
		return strings.Join(f, " ")
	}
	return [][2]string{
		{"unknown tag", swap(0, "r0")},
		{"missing field", strings.Join(fields[:len(fields)-1], " ")},
		{"extra field", payload + " 7"},
		{"found not 0 or 1", swap(8, "2")},
		{"23 factors", swap(9, fields[9][strings.IndexByte(fields[9], ',')+1:])},
		{"25 factors", swap(9, fields[9]+",1")},
		{"signed factor", swap(9, "+"+fields[9])},
		{"empty integer", swap(3, "")},
		{"hex integer", swap(12, "0x10")},
		{"int64 overflow", swap(4, "9223372036854775808")},
		{"dram out of range", swap(10, "3")},
		{"noc negative", swap(11, "-1")},
		{"newline in sub", swap(7, "a\nb")},
		{"newline in mode", swap(2, "pruned\n")},
		{"comma for space", strings.Join(fields[:4], " ") + "," + strings.Join(fields[4:], " ")},
		{"space for comma", swap(9, strings.Replace(fields[9], ",", " ", 1))},
		{"factor sign only", swap(9, "-"+fields[9][strings.IndexByte(fields[9], ','):])},
	}
}

// TestEncodeRecordRefusesUnframeableFields: a string field holding the
// separator or a newline would not decode back exactly, so AppendRecord
// refuses it and leaves its buffer as it was, and Store.Put counts the
// refusal as a write error and keeps the record out of the index and the
// file.
func TestEncodeRecordRefusesUnframeableFields(t *testing.T) {
	good := Record{Key: testKey(0), Entry: testEntry(0)}
	for name, tc := range map[string]struct {
		mutate  func(*Key)
		version string
	}{
		"space in shape":   {func(k *Key) { k.Shape = "1|3 3|1" }, "v"},
		"newline in sub":   {func(k *Key) { k.Sub = "sub\n" }, "v"},
		"space in mode":    {func(k *Key) { k.Mode = "pruned mappings" }, "v"},
		"newline in stamp": {func(*Key) {}, "v\n2"},
	} {
		rec := good
		tc.mutate(&rec.Key)
		if data, err := AppendRecord([]byte("kept"), rec, tc.version); err == nil || string(data) != "kept" {
			t.Errorf("%s: encoded as %q (%v)", name, data, err)
		}
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := testKey(0)
	bad.Shape = "1|3 3|1"
	s.Put(bad, testEntry(0))
	s.Put(testKey(1), testEntry(1))
	for name, want := range map[string]int64{"evalcache_write_errors_total": 1, "evalcache_records_written_total": 1} {
		if got := s.Metrics().Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, ok := s.Get(bad); ok {
		t.Error("refused record served from the index")
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || s2.Metrics().Counter("evalcache_corrupt_records_total").Value() != 0 {
		t.Errorf("reopen: %d records, %d corrupt; want 1, 0", s2.Len(), s2.Metrics().Counter("evalcache_corrupt_records_total").Value())
	}
}

// TestMixedFormatStore: a store file that interleaves parent-format JSON
// lines with fixed-field lines loads every record, and the compaction that
// one corrupt line forces rewrites every surviving line in the new format.
func TestMixedFormatStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	path := filepath.Join(dir, dataFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fresh := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	old := parentLines(t)
	want := map[Key]Entry{}
	for i := 0; i < 3; i++ {
		want[testKey(i)] = testEntry(i)
		rec, _, err := DecodeRecord([]byte(old[i]), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[rec.Key] = rec.Entry
	}
	corrupt := []byte(fresh[0])
	corrupt[len(corrupt)/2] ^= 0xFF
	mixed := strings.Join([]string{old[0], fresh[0], old[1], string(corrupt), fresh[1], old[2], fresh[2]}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(mixed), 0o644); err != nil {
		t.Fatal(err)
	}

	for pass, wantCorrupt := range []int64{1, 0} {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := s.Metrics()
		if got := m.Counter("evalcache_corrupt_records_total").Value(); got != wantCorrupt {
			t.Errorf("open %d: %d corrupt records, want %d", pass, got, wantCorrupt)
		}
		if got := m.Counter("evalcache_stale_records_total").Value(); got != 0 {
			t.Errorf("open %d: %d stale records, want 0", pass, got)
		}
		if s.Len() != len(want) {
			t.Fatalf("open %d: %d records, want %d", pass, s.Len(), len(want))
		}
		for key, ent := range want {
			if got, ok := s.Get(key); !ok || got != ent {
				t.Errorf("open %d: %+v answered %+v (hit %v), want %+v", pass, key, got, ok, ent)
			}
		}
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("compacted file has %d lines, want %d", len(lines), len(want))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line[9:], recordTag+" ") {
			t.Errorf("compaction kept a line in the old format: %q", line)
		}
	}
}

// TestDecodeRecordAllocs bounds the allocations of decoding one
// fixed-field line off the wire where it lies: the four strings of the
// version stamp and key without an intern table, and none with a table that
// already holds them, as a shard's lines share their mode and version and a
// design's lines their sub-key, or with a read-only known table that holds
// them. The JSON decoder it replaced made 36 for the same record, and the
// string form before this one 5.
func TestDecodeRecordAllocs(t *testing.T) {
	line, err := AppendRecord(nil, Record{Key: testKey(2), Entry: testEntry(2)}, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { DecodeRecord(line, nil, nil) }); n > 4 {
		t.Errorf("decoding one record line allocates %.0f times, want at most 4", n)
	}
	strs := map[string]string{}
	if n := testing.AllocsPerRun(100, func() { DecodeRecord(line, nil, strs) }); n != 0 {
		t.Errorf("decoding one record line through a warm intern table allocates %.0f times, want 0", n)
	}
	key := testKey(2)
	known := map[string]string{key.Shape: key.Shape, key.Sub: key.Sub, key.Mode: key.Mode, "v-test": "v-test"}
	if n := testing.AllocsPerRun(100, func() { DecodeRecord(line, known, nil) }); n != 0 {
		t.Errorf("decoding one record line through a known table allocates %.0f times, want 0", n)
	}
	if len(known) != 4 {
		t.Errorf("decoding wrote the known table: %d entries, want 4", len(known))
	}
}

// FuzzDecodeRecord: DecodeRecord parses bytes another process sent, and a
// store's load parses its file with the same decoder. It must never panic,
// it must accept exactly the lines the split-based reference decoder
// (refDecode) accepts and read the same key, entry, version and stamp from
// them, with or without a load's intern table and a known table, and any
// line it accepts must re-encode to a line that decodes to the same record
// and version.
func FuzzDecodeRecord(f *testing.F) {
	data, err := AppendRecord(nil, Record{Key: testKey(3), Entry: testEntry(3)}, "v-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	valid := strings.TrimSuffix(string(data), "\n")
	for _, line := range append([]string{valid}, parentLines(f)...) {
		// The payload alone seeds the framed pass below.
		for _, s := range []string{line, line[9:]} {
			for _, n := range []int{len(s), len(s) - 1, len(s) / 2, 12, 0} {
				f.Add(s[:n])
			}
		}
	}
	// Payloads one edit from valid, and integers at their bounds, hold the
	// two decoders to the same answer on every rejection without waiting
	// for the fuzzer to find it.
	payload := valid[9:]
	for _, c := range malformedPayloads(payload) {
		f.Add(c[1])
	}
	fields := strings.Split(payload, " ")
	for _, salt := range []string{"-9223372036854775808", "-9223372036854775809", "9223372036854775807", "-0", "0000000000000000001", "00000000000000000001"} {
		fields[4] = salt
		f.Add(strings.Join(fields, " "))
	}
	// One intern table across inputs, as across a load's lines, so both a
	// fresh string and a shared one are checked; it is cleared before it
	// grows large.
	strs := map[string]string{}
	// The valid seed's key strings and version are known, as a fleet
	// coordinator knows its evaluator's, so its lines read them from there.
	k := testKey(3)
	known := map[string]string{k.Shape: k.Shape, k.Sub: k.Sub, k.Mode: k.Mode, "v-fuzz": "v-fuzz"}
	f.Fuzz(func(t *testing.T, line string) {
		if len(strs) > 1024 {
			clear(strs)
		}
		// Random bytes rarely get past the CRC, so the same bytes also go
		// through framed as a payload to reach the field parsers.
		for _, l := range []string{line, string(checkpoint.FrameLine([]byte(line)))} {
			text := strings.TrimSuffix(l, "\n")
			wantKey, wantEnt, wantVersion, wantAt, wantErr := refDecode(text)
			key, ent, version, at, err := decode([]byte(text), nil, strs)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%q: decode says %v, the reference %v", text, err, wantErr)
			}
			if key != wantKey || ent != wantEnt || version != wantVersion || at != wantAt {
				t.Fatalf("%q: decode read %+v %+v %q at %d, the reference %+v %+v %q at %d",
					text, key, ent, version, at, wantKey, wantEnt, wantVersion, wantAt)
			}
			rec, version, err := DecodeRecord([]byte(l), known, strs)
			if (err == nil) != (wantErr == nil) || rec != (Record{Key: wantKey, Entry: wantEnt}) || version != wantVersion {
				t.Fatalf("%q: DecodeRecord read %+v under %q (%v), the reference %+v %+v under %q (%v)",
					l, rec, version, err, wantKey, wantEnt, wantVersion, wantErr)
			}
			if err != nil {
				continue
			}
			data, err := AppendRecord(nil, rec, version)
			if err != nil {
				t.Fatalf("accepted %q, which does not re-encode: %v", l, err)
			}
			again, againVersion, err := DecodeRecord(data, nil, nil)
			if err != nil || again != rec || againVersion != version {
				t.Fatalf("accepted %q as %+v under %q; its re-encoding %q reads %+v under %q (%v)",
					l, rec, version, data, again, againVersion, err)
			}
		}
	})
}
