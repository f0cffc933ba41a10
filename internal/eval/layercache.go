package eval

import (
	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// layerCacheKey identifies one layer-grain mapping-search result: the
// canonical layer shape, the design sub-key of exactly the parameters the
// perf model reads (perf.MappingSubKey), and — in RandomMappings mode only —
// the layer's seed salt, because the random search's rng is derived from the
// layer index.
type layerCacheKey struct {
	shape string
	sub   string
	salt  int64
}

// layerEntry is the shape-invariant outcome of a layer's search: the
// decision, as stored and shipped, plus the Tier-2 breakdown derive
// computes from it. The caller re-attaches the concrete Layer (whose Name
// and Mult are not part of the shape key) and re-derives
// multiplicity-scaled totals.
type layerEntry struct {
	evalcache.Entry
	perf perf.Breakdown
	// derived is false only for an installed record not yet looked up; its
	// breakdown is derived on the first layerResult hit, where the design
	// and the layer are at hand.
	derived bool
}

// layerFlight is one in-progress layer search other goroutines can wait on.
// A goroutine that joins the flight makes done, under e.mu; the searcher
// settles the flight under e.mu too, and only a joined flight gets a copy of
// the entry, or the panic value when the search panicked, before done
// closes. Waiters re-raise a panic on their own goroutine, so every design
// joined to the doomed search records the failure itself (instead of
// deadlocking on a flight that will never close). Joins are rare, so a
// flight nobody joined costs neither a channel nor a copy of the entry.
type layerFlight struct {
	done     chan struct{}
	ent      *layerEntry
	panicked any
}

// walkKey identifies a walk memo entry: a layer shape and the design
// parameters its pruned mapping space depends on (see perf.Walk).
type walkKey struct {
	shape       string
	pes, l1, l2 int
}

// walkCap bounds the walk memo. An exploration searches a key again when it
// tries a neighbouring design with the same PEs and buffers, and in between
// it searches every other layer shape of its models once per design. The
// 11-model suite has 219 shapes, so the memo must hold a few designs' worth:
// on the 11-model codesign exploration at Workers=1, 128 entries answered
// no search, 512 answered 53% and 1,024 65%. At default budgets an entry
// holds a few KiB.
const walkCap = 512

// walk returns the walk memo entry of layer l, of shape key shape, on designs
// with d's PEs and buffer capacities, starting it on a miss.
func (e *Evaluator) walk(shape string, d arch.Design, l workload.Layer) *perf.Walk {
	key := walkKey{shape: shape, pes: d.PEs, l1: d.L1Bytes, l2: d.L2Bytes()}
	e.mu.Lock()
	defer e.mu.Unlock()
	if w, ok := e.walks.get(key); ok {
		e.cWalkHits.Inc()
		return w
	}
	e.cWalkMisses.Inc()
	w := perf.NewWalk(l, d)
	e.walks.put(key, w)
	return w
}

// layerKeyFor builds the in-memory layer-cache key for one layer of a model
// on a design with sub-key sub. The salt participates in RandomMappings mode
// only: the random search's rng is seeded from the layer index, so equal
// shapes at different indices draw different mappings. Caller need not hold
// e.mu.
func (e *Evaluator) layerKeyFor(l workload.Layer, sub string, salt int64) layerCacheKey {
	key := layerCacheKey{shape: l.ShapeKey(), sub: sub}
	if e.cfg.Mode == RandomMappings {
		key.salt = salt
	}
	return key
}

// layerResult returns the mapping-search outcome for layer l on design d,
// answering from the layer-grain cache when the (shape, sub-key) pair has
// been searched before, joining an identical in-flight search when one is
// running, then probing the persistent cross-run store (when attached), and
// only then running the search. Every path returns bit-identical search
// outcomes.
func (e *Evaluator) layerResult(d arch.Design, sub string, l workload.Layer, salt int64) layerEntry {
	key := e.layerKeyFor(l, sub, salt)
	e.mu.Lock()
	if ent, ok := e.lcache.get(key); ok {
		e.cLHits.Inc()
		e.mu.Unlock()
		if !ent.derived {
			// An installed record's first use: derive its breakdown once
			// and keep it. A concurrent twin may derive it too; both
			// compute the same entry.
			ent = e.derive(d, l, ent.Entry)
			e.mu.Lock()
			e.lcache.put(key, ent)
			e.mu.Unlock()
		}
		return ent
	}
	if f, ok := e.lflights[key]; ok {
		e.cLDedups.Inc()
		if f.done == nil {
			f.done = make(chan struct{})
		}
		done := f.done
		e.mu.Unlock()
		<-done
		if f.panicked != nil {
			panic(f.panicked)
		}
		return *f.ent
	}
	f := new(layerFlight)
	e.lflights[key] = f
	e.mu.Unlock()

	// Second-level probe: a search completed by a previous run — or by
	// another job or process sharing the cache directory — answers from
	// disk and never reaches the cost model. The singleflight above
	// already collapses concurrent in-process probes of the same key.
	if e.store != nil {
		if dec, ok := e.store.Get(e.persistKey(key)); ok {
			ent := e.derive(d, l, dec)
			e.settle(key, f, &ent, nil)
			e.cPHits.Inc()
			return ent
		}
		e.cPMisses.Inc()
	}

	e.cLMisses.Inc()

	// A panicking search must still resolve the flight — waiters would
	// otherwise block forever — and must not poison the cache: settle it
	// with the panic value, and re-raise.
	defer func() {
		if rec := recover(); rec != nil {
			e.settle(key, f, nil, rec)
			panic(rec)
		}
	}()
	ent := e.timedSearchLayer(d, l, key, salt)
	e.settle(key, f, &ent, nil)
	if e.store != nil {
		// Persist after waking waiters: the fsync'd append rides on this
		// goroutine, never on the joined ones.
		e.store.Put(e.persistKey(key), ent.Entry)
		e.cPWrites.Inc()
	}
	return ent
}

// settle resolves flight f of key: it caches ent (nil after a panic),
// unregisters the flight, and wakes any waiter with a copy of ent or with
// the panic value.
func (e *Evaluator) settle(key layerCacheKey, f *layerFlight, ent *layerEntry, panicked any) {
	e.mu.Lock()
	if ent != nil {
		e.lcache.put(key, *ent)
	}
	delete(e.lflights, key)
	done := f.done
	if done != nil {
		if ent != nil {
			joined := *ent
			f.ent = &joined
		}
		f.panicked = panicked
	}
	e.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// persistKey derives the content address of a layer search in the
// cross-run store: the in-memory cache key plus everything that is implicit
// within one evaluator but varies across runs — the mapper mode, the search
// budget, and (in random mode) the fully-resolved rng seed. The cost-model
// version is stamped per record by the store itself.
func (e *Evaluator) persistKey(key layerCacheKey) evalcache.Key {
	pk := evalcache.Key{Shape: key.shape, Sub: key.sub, Mode: e.cfg.Mode.String()}
	switch e.cfg.Mode {
	case RandomMappings:
		// The random search draws from rand.NewSource(Seed*1_000_003+salt)
		// (see searchLayer), so the persisted salt must be that resolved
		// seed — two runs with different Config.Seed must not share
		// random-mode entries.
		pk.Trials = e.cfg.MapTrials
		pk.Salt = e.cfg.Seed*1_000_003 + key.salt
	case PrunedMappings:
		pk.Trials = e.cfg.MapTrials
	default:
		// FixedDataflow derives one mapping analytically: no budget, no
		// seed, so entries are shared across all configurations.
	}
	return pk
}

// derive completes a layer search's decision with its Tier-2 breakdown. The
// breakdown is a pure function of the design's sub-key, the layer shape and
// the decision, so records carry only the decision, and every path — a
// fresh search, a store hit, Prefill, an installed record on first use —
// derives the breakdown here, once per cached entry. The context is built
// per call and stays on the stack.
func (e *Evaluator) derive(d arch.Design, l workload.Layer, dec evalcache.Entry) layerEntry {
	ent := layerEntry{Entry: dec, derived: true}
	switch {
	case dec.Found:
		ent.perf = perf.NewContext(d, l).Evaluate(dec.Mapping)
		e.cFullEvals.Inc()
	case e.cfg.Mode == RandomMappings:
		ent.perf.Incompat = "no valid mapping found by random search"
	case e.cfg.Mode == PrunedMappings:
		ent.perf.Incompat = "no valid mapping in pruned space"
	}
	return ent
}
