// Package checkpoint makes long exploration campaigns crash-safe: every
// unique design evaluation is appended to a per-run journal the moment it
// completes, so a killed run can resume without losing (or re-charging)
// evaluated designs. The journal is an append-only JSONL file whose lines
// carry a CRC32; a torn trailing write — the signature of a hard kill — is
// detected by the CRC and dropped with a warning rather than poisoning the
// resume.
//
// Resume model: the journal is a durable memo, not a program counter. A
// resumed run re-executes its (deterministic) optimizer from the start;
// journaled designs are answered from the replayed records instead of being
// recomputed, and the evaluator's unique-design accounting is pre-seeded
// with the journaled keys, so the resumed trace — steps, best solution, and
// budget spent — is bit-identical to an uninterrupted run's regardless of
// where the kill landed.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"xdse/internal/search"
)

// journalFile is the append-only journal of a checkpoint directory.
// snapshotFile is the compacted prefix an earlier build wrote beside it:
// Load still reads one ahead of the journal, so such a checkpoint resumes in
// full, and a Fresh open removes it.
const (
	journalFile  = "journal.jsonl"
	snapshotFile = "snapshot.jsonl"
)

// syncEvery is the fsync cadence in appended records: the journal is flushed
// and fsync'd after every syncEvery-th append, bounding how many evaluations
// a hard kill can lose.
const syncEvery = 16

// Record is one journaled design evaluation: the design's point key, its
// scalar evaluation outcome, and the journal sequence number it was written
// at. The domain payload (Costs.Raw) is deliberately not persisted — replay
// rematerializes it on demand through the evaluator, which is deterministic.
type Record struct {
	// Step is the journal sequence number (0-based, unique per run).
	Step int
	// Key is the design point's cache key (arch.Point.Key).
	Key string
	// Costs is the evaluation outcome, with Raw stripped.
	Costs search.Costs
}

// line is the JSON wire form of a Record. Floats travel as hex-float
// strings (strconv 'x' format) so the round trip is bit-exact and ±Inf/NaN
// — legal objective values for unevaluable designs — survive, which plain
// JSON numbers cannot guarantee.
type line struct {
	Step       int    `json:"step"`
	Key        string `json:"key"`
	Objective  string `json:"obj"`
	Feasible   bool   `json:"feasible"`
	MeetsAP    bool   `json:"meets_ap"`
	BudgetUtil string `json:"budget"`
	Violations int    `json:"violations"`
	Err        string `json:"err,omitempty"`
}

// formatF renders a float for the journal: shortest hex form that parses
// back to the identical bits (Inf and NaN included).
func formatF(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// parseF is the inverse of formatF.
func parseF(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// FrameLine renders payload as one journal line under this package's CRC
// discipline: eight lowercase hex digits of the payload's CRC32 (IEEE), a
// space, the payload, and a trailing newline. The persistent evaluation
// cache (internal/evalcache) frames its records with this too, so every
// journal in the tree shares one torn-write detection story.
func FrameLine(payload []byte) []byte {
	line, start := OpenFrame(make([]byte, 0, 9+len(payload)+1))
	return CloseFrame(append(line, payload...), start)
}

// OpenFrame appends the head of a FrameLine frame to dst: a CRC field, still
// blank, and its space. It returns dst and the index the frame starts at;
// the caller appends the payload after it and seals the frame with
// CloseFrame, so a payload is framed where it is built instead of copied.
func OpenFrame(dst []byte) ([]byte, int) {
	return append(dst, "00000000 "...), len(dst)
}

// CloseFrame seals the frame OpenFrame began at start: it writes the CRC of
// everything appended after the frame's head into the CRC field and appends
// the newline.
func CloseFrame(dst []byte, start int) []byte {
	const hexDigits = "0123456789abcdef"
	for i, crc := start+7, crc32.ChecksumIEEE(dst[start+9:]); i >= start; i, crc = i-1, crc>>4 {
		dst[i] = hexDigits[crc&0xf]
	}
	return append(dst, '\n')
}

// UnframeLine verifies one framed line (without its trailing newline) and
// returns the payload. A short line, malformed CRC field, or checksum
// mismatch — the signatures of a torn or corrupted write — is an error;
// callers treat it as end-of-intact-data, not as fatal. The CRC is checked
// over the line where it lies, and the payload is a sub-slice of line.
func UnframeLine(line []byte) ([]byte, error) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, fmt.Errorf("checkpoint: malformed line %q", truncateForErr(string(line)))
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: bad CRC field: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (want %08x, got %08x)", want, got)
	}
	return payload, nil
}

// encode renders a Record as one CRC'd journal line (newline included).
func encode(r Record) ([]byte, error) {
	data, err := json.Marshal(line{
		Step:       r.Step,
		Key:        r.Key,
		Objective:  formatF(r.Costs.Objective),
		Feasible:   r.Costs.Feasible,
		MeetsAP:    r.Costs.MeetsAreaPower,
		BudgetUtil: formatF(r.Costs.BudgetUtil),
		Violations: r.Costs.Violations,
		Err:        r.Costs.Err,
	})
	if err != nil {
		return nil, err
	}
	return FrameLine(data), nil
}

// decode parses one journal line (without its trailing newline), verifying
// the CRC before trusting the payload.
func decode(text []byte) (Record, error) {
	payload, err := UnframeLine(text)
	if err != nil {
		return Record{}, err
	}
	var l line
	if err := json.Unmarshal(payload, &l); err != nil {
		return Record{}, fmt.Errorf("checkpoint: bad JSON: %w", err)
	}
	obj, err := parseF(l.Objective)
	if err != nil {
		return Record{}, fmt.Errorf("checkpoint: bad objective: %w", err)
	}
	budget, err := parseF(l.BudgetUtil)
	if err != nil {
		return Record{}, fmt.Errorf("checkpoint: bad budget: %w", err)
	}
	return Record{
		Step: l.Step,
		Key:  l.Key,
		Costs: search.Costs{
			Objective:      obj,
			Feasible:       l.Feasible,
			MeetsAreaPower: l.MeetsAP,
			BudgetUtil:     budget,
			Violations:     l.Violations,
			Err:            l.Err,
		},
	}, nil
}

// truncateForErr bounds corrupt-line excerpts embedded in error messages.
func truncateForErr(s string) string {
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}

// Options configures how a journal opens.
type Options struct {
	// Fresh discards any existing journal in the directory instead of
	// resuming from it (a new run that happens to reuse a directory).
	Fresh bool
	// Warnf, when non-nil, receives non-fatal recovery warnings (torn or
	// CRC-failing lines dropped during load). The default discards them.
	Warnf func(format string, args ...any)
}

// Journal is one run's open checkpoint: the records replayed from disk at
// Open plus everything appended since. It is safe for concurrent Append
// from evaluation workers.
type Journal struct {
	replayed []Record // loaded from disk at Open

	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
	// seen holds the key of every replayed or appended record, so its size
	// is the next record's Step.
	seen     map[string]bool
	unsynced int
	closed   bool
}

// Open opens (creating if needed) the checkpoint directory for one run,
// loads every intact record unless opts.Fresh, and readies the journal for
// appends. Corrupt or torn trailing lines are dropped with a warning — the
// expected aftermath of a hard kill — never a fatal error.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.Fresh {
		for _, name := range []string{snapshotFile, journalFile} {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
	}
	recs, err := Load(dir, opts.Warnf)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		replayed: recs,
		f:        f,
		w:        bufio.NewWriter(f),
		seen:     make(map[string]bool, len(recs)),
	}
	for _, r := range recs {
		j.seen[r.Key] = true
	}
	return j, nil
}

// Load reads every intact record from a checkpoint directory (an earlier
// build's snapshot first, then the journal), deduplicated by design key with
// the first occurrence winning. A line that is truncated or fails its CRC —
// and everything after it in that file — is dropped via warnf; Load only
// errors on I/O failures, never on corrupt content.
func Load(dir string, warnf func(format string, args ...any)) ([]Record, error) {
	warn := func(format string, args ...any) {
		if warnf != nil {
			warnf(format, args...)
		}
	}
	var recs []Record
	seen := make(map[string]bool)
	for _, name := range []string{snapshotFile, journalFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for lineNo := 1; len(data) > 0; lineNo++ {
			text, tail, complete := bytes.Cut(data, []byte{'\n'})
			if !complete {
				warn("checkpoint: %s/%s line %d: torn write (no newline), dropping", dir, name, lineNo)
				break
			}
			data = tail
			rec, err := decode(text)
			if err != nil {
				warn("checkpoint: %s/%s line %d: %v — dropping this and later lines", dir, name, lineNo, err)
				break
			}
			if seen[rec.Key] {
				continue
			}
			seen[rec.Key] = true
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// Replayed returns the records that were loaded from disk when the journal
// was opened — the resume set. The returned slice is shared; callers must
// not mutate it.
func (j *Journal) Replayed() []Record { return j.replayed }

// Append journals one completed design evaluation. Appends are deduplicated
// by key — re-acquisitions of memoized designs are free in the budget and
// therefore absent from the journal. Safe for concurrent use.
func (j *Journal) Append(key string, c search.Costs) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("checkpoint: append to closed journal")
	}
	if j.seen[key] {
		return nil
	}
	c.Raw = nil
	rec := Record{Step: len(j.seen), Key: key, Costs: c}
	data, err := encode(rec)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	j.seen[key] = true
	j.unsynced++
	if j.unsynced >= syncEvery {
		return j.flushLocked()
	}
	return nil
}

// flushLocked drains the buffer and fsyncs the journal. Caller holds j.mu.
func (j *Journal) flushLocked() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.unsynced = 0
	return nil
}

// Flush forces buffered records to stable storage (the shutdown path).
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.flushLocked()
}

// Close flushes, fsyncs, and closes the journal. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
