package eval

import (
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

// Memoized reports whether pt's evaluation is currently answerable from the
// design memo without any computation. The distributed coordinator uses it
// to skip remote prefetch for points an optimizer is merely revisiting.
func (e *Evaluator) Memoized(pt arch.Point) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.cache.get(pt.Key())
	return ok
}

// Records returns the content-addressed layer records of r, a result of this
// evaluator: one per slot, keyed exactly as the persistent store keys them,
// holding the decision r's slot layer carries. This is the worker half of the
// fleet protocol: after evaluating a point, a worker exports the records of
// its Result so the coordinator can install them and replay the design
// evaluation locally, bit-identically, from record-map hits alone. An errored
// or cancelled result holds no decisions and exports nothing; the coordinator
// recomputes those layers itself, so a missing export degrades to extra local
// work, never wrongness.
func (e *Evaluator) Records(r *Result) []evalcache.Record {
	if r.Err != "" || r.Cancelled {
		return nil
	}
	sub := perf.MappingSubKey(r.Design)
	out := make([]evalcache.Record, len(e.slots))
	for i := range e.slots {
		s := &e.slots[i]
		le := &r.Models[s.model].Layers[s.index]
		out[i] = evalcache.Record{
			Key:   e.persistKey(s.shape, sub, int64(s.index)),
			Entry: evalcache.Entry{Found: le.Found, Mapping: le.Mapping, Trials: le.MapTrials},
		}
	}
	return out
}

// InstallRecords seeds the evaluator's record map (and the attached
// persistent store, when one exists) with content-addressed records computed
// elsewhere — the coordinator half of the fleet protocol, and the record map's
// one writer. Each record's key must be one persistKey builds here: a record
// addressed to a different mode, trial budget, or random-mode seed is skipped,
// so a mis-addressed or stale-configuration record can never answer a local
// search. Installed decisions are exactly what a local search would have
// produced (the content-address contract), and each lookup derives its
// breakdown, so evaluations answering from them are bit-identical to
// evaluations that never saw the records. Returns the number of records newly
// installed.
func (e *Evaluator) InstallRecords(recs []evalcache.Record) int {
	n := 0
	for _, rec := range recs {
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
		e.records.put(rec.Key, rec.Entry)
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
