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

// RecordsFor returns the content-addressed layer-search records this
// evaluator currently holds for design point pt — one per unique
// (layer shape, sub-key[, salt]) across the configured models, keyed exactly
// as the persistent store would key them. This is the worker half of the
// fleet protocol: after evaluating pt, a worker exports the layer records so
// the coordinator can install them and replay the design evaluation locally,
// bit-identically, from cache hits alone. Entries not (or no longer) in the
// layer cache are simply absent — the coordinator recomputes those layers
// itself, so a partial export degrades to extra local work, never wrongness.
func (e *Evaluator) RecordsFor(pt arch.Point) []evalcache.Record {
	d, err := e.cfg.Space.Decode(pt)
	if err != nil {
		return nil
	}
	sub := perf.MappingSubKey(d)
	var out []evalcache.Record
	seen := make(map[layerCacheKey]bool)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, mdl := range e.cfg.Models {
		for i := range mdl.Layers {
			key := e.layerKeyFor(mdl.Layers[i], sub, int64(i))
			if seen[key] {
				continue
			}
			seen[key] = true
			ent, ok := e.lcache.get(key)
			if !ok {
				continue
			}
			out = append(out, evalcache.Record{Key: e.persistKey(key), Entry: ent.Entry})
		}
	}
	return out
}

// InstallRecords seeds the evaluator's layer-grain cache (and the attached
// persistent store, when one exists) with content-addressed records computed
// elsewhere — the coordinator half of the fleet protocol. Each record's key
// is inverted to this evaluator's in-memory cache key and then re-derived
// through persistKey; a record that does not round-trip (different mode,
// trial budget, or random-mode seed) is skipped, so a mis-addressed or
// stale-configuration record can never answer a local search. Installed
// decisions are exactly what a local search would have produced (the
// content-address contract), and each one's breakdown is derived on its
// first layerResult lookup, so subsequent evaluations answering from them
// are bit-identical to evaluations that never saw the records. Returns the
// number of records newly installed.
func (e *Evaluator) InstallRecords(recs []evalcache.Record) int {
	n := 0
	for _, rec := range recs {
		key := layerCacheKey{shape: rec.Key.Shape, sub: rec.Key.Sub}
		if e.cfg.Mode == RandomMappings {
			// persistKey resolves salt as Seed*1_000_003 + layer index;
			// invert it so the in-memory key carries the layer index again.
			// The decomposition is unique only while the index stays below
			// the multiplier, so an out-of-range result means the record
			// was keyed under a different seed — reject it (the plain
			// round-trip below cannot see a seed delta: the salt absorbs it).
			key.salt = rec.Key.Salt - e.cfg.Seed*1_000_003
			if key.salt < 0 || key.salt >= 1_000_003 {
				continue
			}
		}
		if e.persistKey(key) != rec.Key {
			continue
		}
		e.mu.Lock()
		if _, ok := e.lcache.get(key); ok {
			e.mu.Unlock()
			continue
		}
		e.lcache.put(key, layerEntry{Entry: rec.Entry})
		e.mu.Unlock()
		if e.store != nil {
			e.store.Put(rec.Key, rec.Entry)
		}
		n++
	}
	return n
}

// Prefill reports whether pt's evaluation can run entirely from local layer
// records: every layer key RecordsFor would export is either in the layer
// cache or in the attached persistent store. Store hits are derived and
// installed into the layer cache exactly as layerResult's store probe
// installs them, and counted as persist hits. It stops at the first layer
// neither holds, so a point that needs a search costs one key derivation.
// This is the fleet coordinator's local-first filter: a coordinator
// restarted over the same store finds everything it already evaluated here
// and dispatches none of it.
func (e *Evaluator) Prefill(pt arch.Point) bool {
	d, err := e.cfg.Space.Decode(pt)
	if err != nil {
		return false
	}
	sub := perf.MappingSubKey(d)
	for _, mdl := range e.cfg.Models {
		for i := range mdl.Layers {
			key := e.layerKeyFor(mdl.Layers[i], sub, int64(i))
			e.mu.Lock()
			_, ok := e.lcache.get(key)
			e.mu.Unlock()
			if ok {
				continue
			}
			if e.store == nil {
				return false
			}
			dec, ok := e.store.Get(e.persistKey(key))
			if !ok {
				return false
			}
			ent := e.derive(d, mdl.Layers[i], dec)
			e.mu.Lock()
			e.lcache.put(key, ent)
			e.mu.Unlock()
			e.cPHits.Inc()
		}
	}
	return true
}
