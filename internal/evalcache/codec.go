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

// A record line is a checkpoint.FrameLine frame around one payload of
// space-separated fields:
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
// APIs (EncodeRecord/DecodeRecord, the fleet protocol) move between
// processes.
type Record struct {
	Key   Key
	Entry Entry
}

// EncodeRecord renders one record as a CRC-guarded record line (newline
// included) under the given cost-model version stamp — the exact on-disk
// format, exposed so records can travel over the network and be re-verified
// (CRC and version both) at the receiving end. A string field holding a
// space or a newline cannot be decoded back exactly and is refused.
func EncodeRecord(rec Record, version string) ([]byte, error) {
	return encode(rec.Key, rec.Entry, version, 0)
}

// DecodeRecord parses one EncodeRecord line (trailing newline optional),
// verifying the CRC before trusting the payload, and returns the record with
// the version stamp it was written under. Callers must check the version
// against their own perf.ModelVersion before installing the entry.
func DecodeRecord(line string) (Record, string, error) {
	key, ent, version, _, err := decode(strings.TrimSuffix(line, "\n"))
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

// encode renders a record as one CRC'd line (newline included); at is the
// write stamp carried for GC (0 on pure wire-transport lines).
func encode(key Key, ent Entry, version string, at int64) ([]byte, error) {
	for _, s := range [...]string{version, key.Mode, key.Shape, key.Sub} {
		if !fieldOK(s) {
			return nil, fmt.Errorf("evalcache: field %q holds a space or newline", s)
		}
	}
	b := make([]byte, 0, 128+len(version)+len(key.Mode)+len(key.Shape)+len(key.Sub))
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
	return checkpoint.FrameLine(b), nil
}

// decode parses one line (without its newline), verifying the CRC before
// trusting anything in the payload; the fourth return is the record's
// write stamp. The strings of the returned Key are copies, so the key
// does not keep the line alive.
func decode(text string) (Key, Entry, string, int64, error) {
	payload, err := checkpoint.UnframeLine(text)
	if err != nil {
		return Key{}, Entry{}, "", 0, err
	}
	if len(payload) > 0 && payload[0] == '{' {
		return decodeJSON(payload)
	}
	return decodeFields(payload)
}

// decodeFields parses a fixed-field payload.
func decodeFields(payload []byte) (Key, Entry, string, int64, error) {
	fail := func(format string, args ...any) (Key, Entry, string, int64, error) {
		return Key{}, Entry{}, "", 0, fmt.Errorf("record: "+format, args...)
	}
	var f [recordFields][]byte
	if !split(f[:], payload, ' ') {
		return fail("want %d space-separated fields", recordFields)
	}
	if string(f[0]) != recordTag {
		return fail("unknown tag %q", f[0])
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fail("newline inside the line")
	}
	var factors [numFactors][]byte
	if !split(factors[:], f[9], ',') {
		return fail("want %d comma-separated tiling factors", numFactors)
	}
	var ent Entry
	switch string(f[8]) {
	case "0":
	case "1":
		ent.Found = true
	default:
		return fail("found is %q, want 0 or 1", f[8])
	}

	ok := true
	num := func(b []byte, bitSize int) int64 {
		v, good := parseInt(b, bitSize)
		ok = ok && good
		return v
	}
	budget, salt, at := num(f[3], strconv.IntSize), num(f[4], 64), num(f[5], 64)
	for i, tok := range factors {
		ent.Mapping.F[i/int(mapping.NumLevels)][i%int(mapping.NumLevels)] = int(num(tok, strconv.IntSize))
	}
	dram, noc := num(f[10], 64), num(f[11], 64)
	ent.Trials = int(num(f[12], strconv.IntSize))
	if !ok {
		return fail("malformed integer")
	}
	if !tensorOK(dram) || !tensorOK(noc) {
		return fail("stationary tensor out of range")
	}
	ent.Mapping.DRAMStationary = mapping.Tensor(dram)
	ent.Mapping.NoCStationary = mapping.Tensor(noc)
	key := Key{Shape: string(f[6]), Sub: string(f[7]), Mode: string(f[2]), Trials: int(budget), Salt: salt}
	return key, ent, string(f[1]), at, nil
}

// split cuts b at every sep into dst and reports whether it held exactly
// len(dst) pieces.
func split(dst [][]byte, b []byte, sep byte) bool {
	for i := range dst {
		j := bytes.IndexByte(b, sep)
		if j < 0 {
			dst[i] = b
			return i == len(dst)-1
		}
		dst[i], b = b[:j], b[j+1:]
	}
	return false
}

// tensorOK reports whether v names a mapping tensor.
func tensorOK(v int64) bool { return v >= 0 && v < int64(mapping.NumTensors) }

// parseInt parses a decimal integer of the given bit size: an optional '-'
// and 1 to 19 digits. A line holds 29 integers, and decoding one through
// strconv.ParseInt instead takes about a third longer.
func parseInt(b []byte, bitSize int) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64 // 19 digits cannot overflow a uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	limit := uint64(1) << (bitSize - 1)
	if neg {
		return -int64(n), n <= limit
	}
	return int64(n), n < limit
}

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
