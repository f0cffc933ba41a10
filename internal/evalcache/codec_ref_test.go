package evalcache

import (
	"bytes"
	"fmt"
	"strconv"

	"xdse/internal/checkpoint"
	"xdse/internal/mapping"
)

// refDecode is the reference decoder FuzzDecodeRecord holds decode to: the
// split-based parser the store read lines with before the single-pass one.
// text is one line without its newline.
func refDecode(text string) (Key, Entry, string, int64, error) {
	payload, err := checkpoint.UnframeLine([]byte(text))
	if err != nil {
		return Key{}, Entry{}, "", 0, err
	}
	if len(payload) > 0 && payload[0] == '{' {
		return decodeJSON(payload)
	}
	return refDecodeFields(payload)
}

// refDecodeFields parses a fixed-field payload by splitting it into its 13
// fields and the 24 factors first.
func refDecodeFields(payload []byte) (Key, Entry, string, int64, error) {
	fail := func(format string, args ...any) (Key, Entry, string, int64, error) {
		return Key{}, Entry{}, "", 0, fmt.Errorf("record: "+format, args...)
	}
	var f [recordFields][]byte
	if !refSplit(f[:], payload, ' ') {
		return fail("want %d space-separated fields", recordFields)
	}
	if string(f[0]) != recordTag {
		return fail("unknown tag %q", f[0])
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fail("newline inside the line")
	}
	var factors [numFactors][]byte
	if !refSplit(factors[:], f[9], ',') {
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
		v, good := refParseInt(b, bitSize)
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

// refSplit cuts b at every sep into dst and reports whether it held exactly
// len(dst) pieces.
func refSplit(dst [][]byte, b []byte, sep byte) bool {
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

// refParseInt parses a decimal integer of the given bit size: an optional
// '-' and 1 to 19 digits.
func refParseInt(b []byte, bitSize int) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n uint64
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
