// Package evalcache is the cross-run persistent half of the two-level
// evaluation cache: a content-addressed, on-disk store of completed
// layer-grain mapping-search results. In memory, internal/eval keeps a
// design's decisions in its Result and the records a fleet coordinator
// installed in its record map; this store answers repeats across designs,
// runs, jobs, and processes sharing a cache directory, so an identical
// sub-evaluation submitted tomorrow — or by another daemon worker — hits disk
// instead of the cost model.
//
// Content addressing: a record is keyed by everything the search result
// depends on — the layer's canonical shape (workload.Layer.ShapeKey), the
// design sub-key of exactly the parameters the perf model reads
// (perf.MappingSubKey), the mapper mode and its trial budget, the
// random-mode rng seed, and the cost-model version (perf.ModelVersion).
// Records carrying a different model version are counted stale and retired
// at load, so a cost-model change silently invalidates the store instead of
// replaying outdated costs.
//
// A record is the search's decision — found, mapping, trial count — and
// carries no floats: the cost breakdown is a pure function of the key's
// design sub-key, the layer shape and the mapping, so internal/eval derives
// it on first use instead of storing it.
//
// Durability follows the checkpoint journal discipline: records are
// CRC-guarded fixed-field lines (framed by checkpoint.FrameLine, so both
// journals share one torn-write check; see codec.go for the layout),
// appended under an advisory cross-process file lock with a write-then-fsync
// cadence. The fleet's /eval responses carry the same lines.
// Loading tolerates torn tails and corrupt lines — a record that fails its
// CRC degrades to a cache miss (counted, then physically compacted away),
// never to a wrong result.
//
// In memory, one index map holds each record's decision with its write
// stamp, and a FIFO order bounds it; Get, Put, GC, compaction and eviction
// all read that map. Open fills it in one pass over the file's bytes: the
// map, the order and the slab of index values are sized once to the file's
// line count, each line's CRC is checked in place, one parser reads its
// fields left to right, and one intern table per load shares the key
// strings and the version across lines, so a loaded record costs a small
// fraction of an allocation.
package evalcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xdse/internal/mapping"
	"xdse/internal/obs"
	"xdse/internal/perf"
)

// dataFile and lockFile name the two on-disk pieces of a cache directory.
// The data file keeps its .jsonl name from when records were JSON, so
// existing cache directories keep loading; its lines are no longer JSON.
const (
	dataFile = "evalcache.jsonl"
	lockFile = "evalcache.lock"
)

// Key is the content address of one layer-grain search result. Two searches
// with equal keys are bit-identical by construction (the searches are
// deterministic), which is what makes serving one from disk sound.
type Key struct {
	// Shape is the layer's canonical shape key (workload.Layer.ShapeKey).
	Shape string
	// Sub is the mapping-relevant design sub-key (perf.MappingSubKey).
	Sub string
	// Mode is the mapper mode name (eval.MapperMode.String()); each mode
	// runs a different search over the same (shape, sub) pair.
	Mode string
	// Trials is the per-layer search budget — it bounds the explored
	// space, so results under different budgets are distinct entries.
	Trials int
	// Salt is the random-mode rng seed (the evaluator's seed folded with
	// the layer index); zero in the deterministic modes.
	Salt int64
}

// Entry is the decision of one layer mapping search: whether it found a
// valid mapping, which one, and how many candidates it examined. Every field
// participates in the bit-identical replay contract: a run answered from
// Entry values is trace-fingerprint-identical to the run that computed them.
type Entry struct {
	Found   bool
	Mapping mapping.Mapping
	Trials  int
}

// maxIndexEntries bounds the in-memory index (FIFO); the file keeps evicted
// records and a later Open sees them again. This is a leak guard for
// long-running daemons, not a working-set knob.
const maxIndexEntries = 1 << 20

// Options tunes a Store.
type Options struct {
	// Registry receives the store's counters (loads, corrupt, stale,
	// writes, write errors, index evictions). Nil selects a private one.
	Registry *obs.Registry
	// Warnf receives non-fatal recovery warnings (corrupt lines dropped,
	// append failures). The default discards them.
	Warnf func(format string, args ...any)
}

// Store is one open persistent cache over a directory. It is safe for
// concurrent use within a process, and any number of Stores — in this
// process or others — may share a directory: appends are serialized by an
// advisory file lock, and readers treat every record as immutable.
type Store struct {
	dir      string
	dataPath string
	lockPath string
	version  string // perf.ModelVersion(), stamped on and required of records
	maxN     int    // index bound, maxIndexEntries outside tests
	warnf    func(format string, args ...any)

	reg        *obs.Registry
	cLoaded    *obs.Counter
	cCorrupt   *obs.Counter
	cStale     *obs.Counter
	cWrites    *obs.Counter
	cWriteErrs *obs.Counter
	cEvicted   *obs.Counter
	cGCRetired *obs.Counter

	// now supplies write stamps (unix seconds); tests override it to drive
	// GC deterministically.
	now func() int64

	mu    sync.Mutex
	idx   map[Key]*stamped
	order []Key
	head  int
	vals  []stamped // unused index values of the current slab (see insert)
}

// stamped is one indexed record: its decision and the write stamp (unix
// seconds) of the Put that first appended it, the GC currency.
type stamped struct {
	ent Entry
	at  int64
}

// putSlab is the number of index values a Put carves at once when the
// load's slab is used up.
const putSlab = 32

// Open opens (creating if needed) the persistent cache in dir, loading every
// intact, version-current record into the in-memory index. Corrupt lines and
// stale-version records are counted, dropped, and — when any were found —
// compacted out of the file under the cross-process lock, so damage decays
// to misses exactly once instead of being re-scanned forever.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	warnf := opts.Warnf
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	s := &Store{
		dir:      dir,
		dataPath: filepath.Join(dir, dataFile),
		lockPath: filepath.Join(dir, lockFile),
		version:  perf.ModelVersion(),
		maxN:     maxIndexEntries,
		warnf:    warnf,

		reg:        reg,
		cLoaded:    reg.Counter("evalcache_records_loaded_total"),
		cCorrupt:   reg.Counter("evalcache_corrupt_records_total"),
		cStale:     reg.Counter("evalcache_stale_records_total"),
		cWrites:    reg.Counter("evalcache_records_written_total"),
		cWriteErrs: reg.Counter("evalcache_write_errors_total"),
		cEvicted:   reg.Counter("evalcache_index_evictions_total"),
		cGCRetired: reg.Counter("evalcache_gc_retired_total"),

		now: func() int64 { return time.Now().Unix() },
	}
	unlock, err := lockedFile(s.lockPath)
	if err != nil {
		return nil, err
	}
	defer unlock()
	if err := s.loadLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// loadLocked reads the data file into the index and, when any corrupt or
// stale lines were dropped, rewrites the file with only the surviving
// records (write-temp + fsync + atomic rename). Caller holds the file lock.
func (s *Store) loadLocked() error {
	data, err := os.ReadFile(s.dataPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	n := min(bytes.Count(data, []byte{'\n'}), s.maxN)
	s.idx = make(map[Key]*stamped, n)
	s.order = make([]Key, 0, n)
	s.vals = make([]stamped, n)
	// The intern table shares key strings and the version across this
	// load's lines and dies with it; its strings are copies, so no key
	// keeps data alive.
	strs := make(map[string]string)
	// Damage is reported once per open: a store another build wrote can
	// hold thousands of lines this one cannot read.
	var loaded, corrupt, torn, stale, firstLine int
	var firstErr error
	for lineNo := 1; len(data) > 0; lineNo++ {
		end := bytes.IndexByte(data, '\n')
		if end < 0 {
			// Torn tail: the signature of a killed writer. Unlike the
			// checkpoint journal there is no ordering to preserve, so
			// only this line is lost.
			if torn++; firstErr == nil {
				firstLine, firstErr = lineNo, errors.New("torn write (no newline)")
			}
			break
		}
		line := data[:end]
		data = data[end+1:]
		key, ent, version, at, err := decode(line, nil, strs)
		if err != nil {
			// Records are independent; a corrupt line costs exactly that
			// line, and the scan continues at the next newline.
			if corrupt++; firstErr == nil {
				firstLine, firstErr = lineNo, err
			}
			continue
		}
		if version != s.version {
			stale++
			continue
		}
		if _, ok := s.idx[key]; ok {
			continue // duplicate append from a concurrent writer; first wins
		}
		s.insert(key, ent, at)
		loaded++
	}
	s.cLoaded.Add(int64(loaded))
	s.cCorrupt.Add(int64(corrupt + torn))
	s.cStale.Add(int64(stale))
	if firstErr != nil {
		s.warnf("evalcache: %s: dropping %d corrupt and %d torn lines; first at line %d: %v",
			s.dataPath, corrupt, torn, firstLine, firstErr)
	}
	if corrupt+torn+stale > 0 {
		if err := s.compactLocked(); err != nil {
			// The damaged file still loads (damage reads as misses), so a
			// failed compaction is a warning, not an open failure.
			s.warnf("evalcache: compaction failed, keeping damaged file: %v", err)
		}
	}
	return nil
}

// compactLocked rewrites the data file with exactly the live index. Caller
// holds both s.mu (or has exclusive access) and the file lock.
func (s *Store) compactLocked() error {
	tmpPath := s.dataPath + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	for i := s.head; i < len(s.order); i++ {
		key := s.order[i]
		rec := s.idx[key]
		data, err := encode(key, rec.ent, s.version, rec.at)
		if err == nil {
			_, err = tmp.Write(data)
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpPath, s.dataPath)
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Version returns the cost-model version this store reads and writes.
func (s *Store) Version() string { return s.version }

// Metrics returns the store's counter registry (see Options.Registry).
func (s *Store) Metrics() *obs.Registry { return s.reg }

// Len returns the number of records in the in-memory index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Get answers a lookup from the in-memory index; it only reads. Records
// appended by other processes after this store opened are not visible until
// a reopen — the cost is a recompute plus a harmless duplicate append, never
// wrongness.
func (s *Store) Get(key Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.idx[key]
	if !ok {
		return Entry{}, false
	}
	return rec.ent, true
}

// GC retires every record written longer than maxAge ago, then compacts the
// file so the retired lines are physically gone, all under the cross-process
// lock. A record's write stamp is set by the Put that first appended it and
// carried unchanged through compactions; lookups never move it, so GC retires
// by write age, not by use. Records written before stamps existed carry a
// zero stamp and are always GC-eligible. Returns the number of records
// retired. maxAge must be positive — a zero or negative age would silently
// empty the store.
func (s *Store) GC(maxAge time.Duration) (int, error) {
	if maxAge <= 0 {
		return 0, fmt.Errorf("evalcache: GC max age must be positive, got %v", maxAge)
	}
	unlock, err := lockedFile(s.lockPath)
	if err != nil {
		return 0, err
	}
	defer unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	cutoff := s.now() - int64(maxAge/time.Second)
	retired := 0
	keep := make([]Key, 0, len(s.order)-s.head)
	for i := s.head; i < len(s.order); i++ {
		key := s.order[i]
		if s.idx[key].at >= cutoff {
			keep = append(keep, key)
			continue
		}
		delete(s.idx, key)
		retired++
	}
	s.order, s.head = keep, 0
	s.cGCRetired.Add(int64(retired))
	if retired == 0 {
		return 0, nil
	}
	if err := s.compactLocked(); err != nil {
		// The index already dropped the retired records; a failed rewrite
		// leaves them on disk where the next successful compaction (or the
		// next Open) retires them again.
		return retired, fmt.Errorf("evalcache: GC compaction: %w", err)
	}
	return retired, nil
}

// Put records one completed search: into the index immediately, and onto
// disk as a CRC'd line appended under the cross-process file lock and
// fsync'd before the lock is released. A key already present is a no-op (the
// entry is identical by the determinism contract). Disk failures degrade the
// store to memory-only for that record — counted and warned, never fatal. A
// record the line layout cannot carry is refused outright, also counted as
// a write error, so every indexed record survives a compaction.
func (s *Store) Put(key Key, ent Entry) {
	at := s.now()
	data, err := encode(key, ent, s.version, at)
	if err != nil {
		s.cWriteErrs.Inc()
		s.warnf("evalcache: encode: %v", err)
		return
	}
	s.mu.Lock()
	if _, ok := s.idx[key]; ok {
		s.mu.Unlock()
		return
	}
	s.insert(key, ent, at)
	s.mu.Unlock()

	if err := s.appendLocked(data); err != nil {
		s.cWriteErrs.Inc()
		s.warnf("evalcache: append: %v", err)
		return
	}
	s.cWrites.Inc()
}

// appendLocked writes one encoded record under the advisory file lock. The
// data file is reopened per append so a compaction's atomic rename (by this
// or any other process) is always observed — the lock orders the open, the
// single write, and the fsync against every other writer's.
func (s *Store) appendLocked(data []byte) error {
	unlock, err := lockedFile(s.lockPath)
	if err != nil {
		return err
	}
	defer unlock()
	f, err := os.OpenFile(s.dataPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// insert adds a key to the index and FIFO-evicts beyond the bound. Caller
// holds s.mu (or has exclusive access during load).
//
// An index value is over the map's 128-byte limit for values kept in
// place, so the map holds pointers, and the values are carved from slabs:
// one sized to the file at load, then putSlab at a time. A value that GC or
// eviction drops is freed with the last value of its slab.
func (s *Store) insert(key Key, ent Entry, at int64) {
	if len(s.vals) == 0 {
		s.vals = make([]stamped, putSlab)
	}
	rec := &s.vals[0]
	s.vals = s.vals[1:]
	rec.ent, rec.at = ent, at
	s.idx[key] = rec
	s.order = append(s.order, key)
	for len(s.idx) > s.maxN {
		old := s.order[s.head]
		s.head++
		delete(s.idx, old)
		s.cEvicted.Inc()
	}
	if s.head > len(s.order)/2 && s.head > 64 {
		s.order = append([]Key(nil), s.order[s.head:]...)
		s.head = 0
	}
}
