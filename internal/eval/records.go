package eval

import (
	"slices"

	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/perf"
)

// ParseMapperMode resolves a MapperMode from its String() name — the inverse
// the fleet protocol needs to reconstruct an evaluator configuration from a
// wire request. Unknown names report ok=false rather than defaulting, so a
// coordinator/worker mode skew is a rejected request, never a silently
// different search.
func ParseMapperMode(s string) (MapperMode, bool) {
	for _, m := range []MapperMode{FixedDataflow, RandomMappings, PrunedMappings} {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

// Memoized reports whether the evaluation of the point with key key
// (arch.Point.Key) is currently answerable from the design memo without any
// computation. The distributed coordinator uses it to skip remote prefetch
// for points an optimizer is merely revisiting; it takes the key so the
// caller builds it once.
func (e *Evaluator) Memoized(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.cache.get(key)
	return ok
}

// RecordStrings returns a new table of the strings the records of this
// evaluator share, each keyed by itself: its slots' shape keys, its mapper
// mode's name and perf.ModelVersion. A fleet coordinator decodes its
// workers' records against it (evalcache.DecodeRecord's known table), so
// the records it installs hold these strings instead of copies.
func (e *Evaluator) RecordStrings() map[string]string {
	version, mode := perf.ModelVersion(), e.cfg.Mode.String()
	known := make(map[string]string, len(e.slots)+2)
	known[version], known[mode] = version, mode
	for i := range e.slots {
		known[e.slots[i].shape] = e.slots[i].shape
	}
	return known
}

// AppendRecords appends the content-addressed layer records of results,
// results of this evaluator, to dst as record lines (evalcache.AppendRecord)
// under perf.ModelVersion, and returns the extended buffer and the number of
// lines appended. A result exports one record per slot, keyed exactly as the
// persistent store keys it, holding the decision its slot layer carries.
// This is the worker half of the fleet protocol: after evaluating a shard, a
// worker exports the records of its Results so the coordinator can install
// them and replay the design evaluations locally, bit-identically, from
// record-map hits alone.
//
// Two results of one evaluator share records only as twins, designs with
// one sub-key, so a twin of an earlier result in results exports nothing.
// An errored or cancelled result holds no decisions and exports nothing
// either; the coordinator recomputes those layers itself, so a missing
// export degrades to extra local work, never wrongness. dst is grown once,
// to a hint of the lines' length, and each line is framed where it lies:
// beyond that growth, an export allocates the sub-key of each result and
// nothing per record.
func (e *Evaluator) AppendRecords(dst []byte, results []*Result) ([]byte, int) {
	version := perf.ModelVersion()
	// subs[i] is the sub-key of results[i], or "" when results[i] exports
	// nothing; a sub-key is never empty.
	subs := make([]string, len(results))
	need := 0
	for i, r := range results {
		if r.Err != "" || r.Cancelled {
			continue
		}
		sub := perf.MappingSubKey(r.Design)
		if slices.Contains(subs[:i], sub) {
			continue
		}
		subs[i] = sub
		for j := range e.slots {
			need += evalcache.LineSizeHint(e.persistKey(e.slots[j].shape, sub, 0), version)
		}
	}
	if cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	n := 0
	for i, r := range results {
		if subs[i] == "" {
			continue
		}
		for j := range e.slots {
			s := &e.slots[j]
			le := &r.Models[s.model].Layers[s.index]
			rec := evalcache.Record{
				Key:   e.persistKey(s.shape, subs[i], int64(s.index)),
				Entry: evalcache.Entry{Found: le.Found, Mapping: le.Mapping, Trials: le.MapTrials},
			}
			var err error
			if dst, err = evalcache.AppendRecord(dst, rec, version); err == nil {
				n++
			}
		}
	}
	return dst, n
}

// InstallRecords seeds the evaluator's record map (and the attached
// persistent store, when one exists) with content-addressed records computed
// elsewhere — the coordinator half of the fleet protocol, and the record map's
// one writer. Each record's key must be one persistKey builds here: a record
// addressed to a different mode, trial budget, or random-mode seed is skipped,
// so a mis-addressed or stale-configuration record can never answer a local
// search. A key already in the record map keeps its entry (first wins).
// Installed decisions are exactly what a local search would have produced
// (the content-address contract), and each lookup derives its breakdown, so
// evaluations answering from them are bit-identical to evaluations that never
// saw the records. Returns the number of records newly installed.
//
// InstallRecords keeps recs: the record map holds pointers to the entries of
// recs, so an install copies no decision, and the caller must not modify
// recs afterwards.
func (e *Evaluator) InstallRecords(recs []evalcache.Record) int {
	n := 0
	for i := range recs {
		rec := &recs[i]
		var salt int64
		if e.cfg.Mode == RandomMappings {
			// persistKey resolves salt as Seed*1_000_003 + layer index;
			// invert it to the layer index. The decomposition is unique only
			// while the index stays below the multiplier, so an out-of-range
			// result means the record was keyed under a different seed —
			// reject it (the plain round-trip below cannot see a seed delta:
			// the salt absorbs it).
			salt = rec.Key.Salt - e.cfg.Seed*1_000_003
			if salt < 0 || salt >= 1_000_003 {
				continue
			}
		}
		if e.persistKey(rec.Key.Shape, rec.Key.Sub, salt) != rec.Key {
			continue
		}
		e.mu.Lock()
		if _, ok := e.records.get(rec.Key); ok {
			e.mu.Unlock()
			continue
		}
		e.records.put(rec.Key, &rec.Entry)
		e.mu.Unlock()
		if e.store != nil {
			e.store.Put(rec.Key, rec.Entry)
		}
		n++
	}
	return n
}

// HasRecords reports whether pt's evaluation can run entirely from local
// layer records: every slot's record is either installed in the record map or
// in the attached persistent store. It is a query: it copies and counts
// nothing, and the evaluation that follows reads the store again and counts
// its hits. It stops at the first slot neither holds, so a point that needs a
// search costs one key. This is the fleet coordinator's local-first filter: a
// coordinator restarted over the same store finds everything it already
// installed there and dispatches none of it.
func (e *Evaluator) HasRecords(pt arch.Point) bool {
	d, err := e.cfg.Space.Decode(pt)
	if err != nil {
		return false
	}
	sub := perf.MappingSubKey(d)
	for i := range e.slots {
		key := e.persistKey(e.slots[i].shape, sub, int64(e.slots[i].index))
		e.mu.Lock()
		_, ok := e.records.get(key)
		e.mu.Unlock()
		if ok {
			continue
		}
		if e.store == nil {
			return false
		}
		if _, ok := e.store.Get(key); !ok {
			return false
		}
	}
	return true
}
