package evalcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"xdse/internal/checkpoint"
	"xdse/internal/mapping"
)

// A record line is a checkpoint frame (see checkpoint.FrameLine) around one
// payload of space-separated fields:
//
//	r1 <version> <mode> <budget> <salt> <at> <shape> <sub> <found> <f0,...,f23> <dram> <noc> <trials>
//
// found is 0 or 1, the 24 tiling factors are dim-major (F[d][l] at
// d*NumLevels+l), and dram and noc are the stationary tensors. The store file
// and the fleet's /eval responses carry the same lines. A payload that
// begins with '{' is a JSON record written by an earlier build and decodes
// through decodeJSON; nothing writes JSON any more.
//
// Changing the layout needs a new tag and a fleet.ProtocolVersion bump: a
// coordinator that cannot read a worker's lines counts each one corrupt and
// silently searches the layer itself.
const recordTag = "r1"

// recordFields is the number of fields in a record payload, tag included.
const recordFields = 13

// numFactors is the number of tiling factors a record carries.
const numFactors = int(mapping.NumDims) * int(mapping.NumLevels)

// Record pairs a content address with its entry — the unit the wire-level
// APIs (AppendRecord/DecodeRecord, the fleet protocol) move between
// processes.
type Record struct {
	Key   Key
	Entry Entry
}

// AppendRecord appends rec to dst as one CRC-guarded record line (newline
// included) under the given cost-model version stamp — the exact on-disk
// format, exposed so records can travel over the network and be re-verified
// (CRC and version both) at the receiving end. The line is built where it
// lies, its CRC written in place. A string field holding a space or a
// newline cannot be decoded back exactly and is refused, and dst comes back
// unchanged.
func AppendRecord(dst []byte, rec Record, version string) ([]byte, error) {
	return appendLine(dst, rec.Key, rec.Entry, version, 0)
}

// LineSizeHint is the room to reserve for one record line of key under
// version: the strings, and space for the numeric fields of the tiling
// factors of a real layer. A line with unusually long numbers outgrows it,
// which costs an append its growth, never a wrong line.
func LineSizeHint(key Key, version string) int {
	return 9 + 128 + len(version) + len(key.Mode) + len(key.Shape) + len(key.Sub) + 1
}

// DecodeRecord parses one AppendRecord line (trailing newline optional)
// where it lies, verifying the CRC before trusting the payload, and returns
// the record with the version stamp it was written under. strs interns the
// key's strings and the version across the lines of one batch, as a store's
// load does; nil copies each. known, when set, is looked up first and never
// written, so concurrent decoders may share it: a fleet coordinator keeps
// there the strings every record of a run shares. Either way the strings
// are not line's bytes, so the record does not keep line alive. Callers
// must check the version against their own perf.ModelVersion before
// installing the entry.
func DecodeRecord(line []byte, known, strs map[string]string) (Record, string, error) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	key, ent, version, _, err := decode(line, known, strs)
	if err != nil {
		return Record{}, "", err
	}
	return Record{Key: key, Entry: ent}, version, nil
}

// fieldOK reports whether a string field survives the line layout: a space
// would split it and a newline would end the line.
func fieldOK(s string) bool {
	return !strings.ContainsAny(s, " \n")
}

// encode renders a record as one CRC'd line (newline included) in a buffer
// of its own; at is the write stamp carried for GC.
func encode(key Key, ent Entry, version string, at int64) ([]byte, error) {
	return appendLine(make([]byte, 0, LineSizeHint(key, version)), key, ent, version, at)
}

// appendLine appends a record as one CRC'd line (newline included) to dst;
// at is the write stamp carried for GC (0 on pure wire-transport lines).
func appendLine(dst []byte, key Key, ent Entry, version string, at int64) ([]byte, error) {
	for _, s := range [...]string{version, key.Mode, key.Shape, key.Sub} {
		if !fieldOK(s) {
			return dst, fmt.Errorf("evalcache: field %q holds a space or newline", s)
		}
	}
	b, start := checkpoint.OpenFrame(dst)
	b = append(b, recordTag...)
	b = append(append(b, ' '), version...)
	b = append(append(b, ' '), key.Mode...)
	b = strconv.AppendInt(append(b, ' '), int64(key.Trials), 10)
	b = strconv.AppendInt(append(b, ' '), key.Salt, 10)
	b = strconv.AppendInt(append(b, ' '), at, 10)
	b = append(append(b, ' '), key.Shape...)
	b = append(append(b, ' '), key.Sub...)
	found := byte('0')
	if ent.Found {
		found = '1'
	}
	b = append(b, ' ', found)
	sep := byte(' ')
	for d := range ent.Mapping.F {
		for _, f := range ent.Mapping.F[d] {
			b = strconv.AppendInt(append(b, sep), int64(f), 10)
			sep = ','
		}
	}
	b = strconv.AppendInt(append(b, ' '), int64(ent.Mapping.DRAMStationary), 10)
	b = strconv.AppendInt(append(b, ' '), int64(ent.Mapping.NoCStationary), 10)
	b = strconv.AppendInt(append(b, ' '), int64(ent.Trials), 10)
	return checkpoint.CloseFrame(b, start), nil
}

// decode parses one line (without its newline), verifying the CRC before
// trusting anything in the payload; the fourth return is the record's
// write stamp. The key's strings and the version come from known or are
// interned in strs (see intern), so the key does not keep the line alive.
func decode(line []byte, known, strs map[string]string) (Key, Entry, string, int64, error) {
	payload, err := checkpoint.UnframeLine(line)
	if err != nil {
		return Key{}, Entry{}, "", 0, err
	}
	if len(payload) > 0 && payload[0] == '{' {
		return decodeJSON(payload)
	}
	return decodeFields(payload, known, strs)
}

// decodeFields parses a fixed-field payload in one left-to-right pass. It
// refuses a wrong field or factor count, an unknown tag, found other than
// 0 or 1, an integer that is not an optional '-' and 1 to 19 digits within
// its bit size, a stationary tensor out of range and a newline anywhere.
func decodeFields(payload []byte, known, strs map[string]string) (Key, Entry, string, int64, error) {
	r := fieldReader{rest: payload}
	if tag := r.str(); r.err == nil && string(tag) != recordTag {
		r.fail("unknown tag %q", tag)
	}
	version, mode := r.str(), r.str()
	budget, salt, at := r.num(' ', strconv.IntSize), r.num(' ', 64), r.num(' ', 64)
	shape, sub := r.str(), r.str()
	var ent Entry
	switch found := r.str(); {
	case r.err != nil:
	case string(found) == "1":
		ent.Found = true
	case string(found) != "0":
		r.fail("found is %q, want 0 or 1", found)
	}
	for i := range numFactors {
		sep := byte(',')
		if i == numFactors-1 {
			sep = ' '
		}
		ent.Mapping.F[i/int(mapping.NumLevels)][i%int(mapping.NumLevels)] = int(r.num(sep, strconv.IntSize))
	}
	dram, noc := r.num(' ', 64), r.num(' ', 64)
	ent.Trials = int(r.num(0, strconv.IntSize))
	if r.err == nil && (!tensorOK(dram) || !tensorOK(noc)) {
		r.fail("stationary tensor out of range")
	}
	if r.err != nil {
		return Key{}, Entry{}, "", 0, r.err
	}
	ent.Mapping.DRAMStationary = mapping.Tensor(dram)
	ent.Mapping.NoCStationary = mapping.Tensor(noc)
	key := Key{Shape: intern(known, strs, shape), Sub: intern(known, strs, sub), Mode: intern(known, strs, mode), Trials: int(budget), Salt: salt}
	return key, ent, intern(known, strs, version), at, nil
}

// fieldReader walks a fixed-field payload. Each read consumes one field and
// the separator after it; the first misfit sets err, and every read after
// it returns a zero value.
type fieldReader struct {
	rest []byte
	err  error
}

func (r *fieldReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("record: "+format, args...)
	}
}

// misplaced fails on a separator or line end where the layout has another.
func (r *fieldReader) misplaced() {
	r.fail("want %d space-separated fields with %d comma-separated tiling factors", recordFields, numFactors)
}

// str reads a string field: every byte up to the next space, none of them
// a newline.
func (r *fieldReader) str() []byte {
	if r.err != nil {
		return nil
	}
	i := bytes.IndexByte(r.rest, ' ')
	if i < 0 {
		r.misplaced()
		return nil
	}
	f := r.rest[:i]
	if bytes.IndexByte(f, '\n') >= 0 {
		r.fail("newline inside the line")
		return nil
	}
	r.rest = r.rest[i+1:]
	return f
}

// num reads a decimal integer of the given bit size, an optional '-' and 1
// to 19 digits, and then sep, or the payload's end when sep is 0. A line
// holds 29 integers, and decoding them through strconv.ParseInt instead
// takes about a third longer.
func (r *fieldReader) num(sep byte, bitSize int) int64 {
	if r.err != nil {
		return 0
	}
	b := r.rest
	neg := len(b) > 0 && b[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	var n uint64 // 19 digits cannot overflow a uint64; more are refused
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	switch {
	case i == len(b) && sep == 0:
		r.rest = b[i:]
	case i < len(b) && sep != 0 && b[i] == sep:
		r.rest = b[i+1:]
	case i == len(b) || b[i] == ' ' || b[i] == ',':
		r.misplaced()
		return 0
	default:
		r.fail("malformed integer")
		return 0
	}
	limit := uint64(1) << (bitSize - 1)
	if digits := i - start; digits == 0 || digits > 19 || n > limit || n == limit && !neg {
		r.fail("malformed integer")
		return 0
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

// intern returns b as a string shared through strs, which one load keeps
// across its lines: a design's layer records share one Sub, and shapes
// repeat across designs. A string known holds is returned from it, and
// known is never written. A nil strs copies b.
func intern(known, strs map[string]string, b []byte) string {
	if s, ok := known[string(b)]; ok {
		return s
	}
	if s, ok := strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if strs != nil {
		strs[s] = s
	}
	return s
}

// tensorOK reports whether v names a mapping tensor.
func tensorOK(v int64) bool { return v >= 0 && v < int64(mapping.NumTensors) }

// wireRecord is the JSON form of one cache line, as earlier builds wrote it.
type wireRecord struct {
	V      string    `json:"v"` // cost-model version stamp
	Shape  string    `json:"shape"`
	Sub    string    `json:"sub"`
	Mode   string    `json:"mode"`
	Budget int       `json:"budget"`
	Salt   int64     `json:"salt"`
	At     int64     `json:"at"` // write stamp, unix seconds (0 = pre-GC record)
	Entry  wireEntry `json:"entry"`
}

// wireEntry is the search's decision. Lines written before records dropped
// the derived breakdown also carry "perf", "cost_calls", "lb_pruned" and
// "warm_fallback"; decoding ignores them, so such lines still load.
type wireEntry struct {
	Found    bool    `json:"found"`
	F        [][]int `json:"f"` // tiling factors, [dim][level]
	DRAMStat int     `json:"dram_stat"`
	NoCStat  int     `json:"noc_stat"`
	Trials   int     `json:"trials"`
}

// decodeJSON parses a JSON payload written by an earlier build. It accepts
// only records the fixed-field layout can carry, so any line that loads can
// be rewritten by a compaction.
func decodeJSON(payload []byte) (Key, Entry, string, int64, error) {
	fail := func(err error) (Key, Entry, string, int64, error) {
		return Key{}, Entry{}, "", 0, err
	}
	var w wireRecord
	if err := json.Unmarshal(payload, &w); err != nil {
		return fail(fmt.Errorf("bad JSON: %w", err))
	}
	for _, s := range [...]string{w.V, w.Mode, w.Shape, w.Sub} {
		if !fieldOK(s) {
			return fail(fmt.Errorf("field %q holds a space or newline", s))
		}
	}
	key := Key{Shape: w.Shape, Sub: w.Sub, Mode: w.Mode, Trials: w.Budget, Salt: w.Salt}
	ent := Entry{Found: w.Entry.Found, Trials: w.Entry.Trials}
	if len(w.Entry.F) != int(mapping.NumDims) {
		return fail(fmt.Errorf("mapping has %d dims, want %d", len(w.Entry.F), mapping.NumDims))
	}
	for d, levels := range w.Entry.F {
		if len(levels) != int(mapping.NumLevels) {
			return fail(fmt.Errorf("mapping dim %d has %d levels, want %d", d, len(levels), mapping.NumLevels))
		}
		copy(ent.Mapping.F[d][:], levels)
	}
	if !tensorOK(int64(w.Entry.DRAMStat)) || !tensorOK(int64(w.Entry.NoCStat)) {
		return fail(fmt.Errorf("stationary tensor out of range"))
	}
	ent.Mapping.DRAMStationary = mapping.Tensor(w.Entry.DRAMStat)
	ent.Mapping.NoCStationary = mapping.Tensor(w.Entry.NoCStat)
	return key, ent, w.V, w.At, nil
}
