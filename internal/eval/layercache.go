package eval

import (
	"time"

	"xdse/internal/arch"
	"xdse/internal/evalcache"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// slot is one distinct layer search of the evaluator's models: the first
// layer, in model order, with a given shape key. In RandomMappings mode a slot
// is a shape key at one layer index, because the random search seeds its rng
// from the index. evaluate searches each slot once per design, and every
// other layer of the slot copies its outcome.
type slot struct {
	layer workload.Layer
	// shape is layer.ShapeKey(), built once at New.
	shape string
	// model and index locate the slot's first layer: its LayerEval holds
	// the outcome the slot's other layers copy. In RandomMappings mode
	// index is also the salt of the search's rng seed.
	model, index int
}

// newSlots works out the distinct layer searches of models under mode: the
// slots, in order of first appearance, and per model and layer the index of
// the layer's slot.
func newSlots(models []*workload.Model, mode MapperMode) ([]slot, [][]int) {
	type id struct {
		shape string
		index int
	}
	first := make(map[id]int)
	var slots []slot
	slotOf := make([][]int, len(models))
	for mi, mdl := range models {
		slotOf[mi] = make([]int, len(mdl.Layers))
		for li, l := range mdl.Layers {
			k := id{shape: l.ShapeKey()}
			if mode == RandomMappings {
				k.index = li
			}
			si, ok := first[k]
			if !ok {
				si = len(slots)
				first[k] = si
				slots = append(slots, slot{layer: l, shape: k.shape, model: mi, index: li})
			}
			slotOf[mi][li] = si
		}
	}
	return slots, slotOf
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

// layerResult returns slot s's decision on design d, of sub-key sub, and the
// Tier-2 breakdown derived from it. It answers from the records a fleet
// coordinator installed, then from the persistent cross-run store (when
// attached), and only then runs the search; every path returns the decision a
// search would. It writes no record map: the design's Result holds the
// decision, and AppendRecords exports it from there. A fresh decision is
// appended to the store; a search that panics appends nothing, so the next
// evaluation searches again.
func (e *Evaluator) layerResult(d arch.Design, sub string, s *slot) (evalcache.Entry, perf.Breakdown) {
	key := e.persistKey(s.shape, sub, int64(s.index))
	e.mu.Lock()
	installed, ok := e.records.get(key)
	e.mu.Unlock()
	if ok {
		e.cLHits.Inc()
		dec := *installed
		return dec, e.derive(d, s.layer, dec)
	}
	// A search completed by a previous run — or by another job or process
	// sharing the cache directory, or by a twin design of this run — answers
	// from disk and never reaches the cost model.
	if e.store != nil {
		if dec, ok := e.store.Get(key); ok {
			e.cPHits.Inc()
			return dec, e.derive(d, s.layer, dec)
		}
		e.cPMisses.Inc()
	}

	e.cLMisses.Inc()
	start := time.Now()
	dec := e.searchLayer(d, s)
	b := e.derive(d, s.layer, dec)
	e.hLayer.ObserveDuration(time.Since(start))
	if e.store != nil {
		e.store.Put(key, dec)
		e.cPWrites.Inc()
	}
	return dec, b
}

// persistKey is the content address of a layer decision, the one key of the
// record map, the cross-run store and the fleet wire: the layer shape, the
// design sub-key, and what is fixed within one evaluator but varies across
// runs — the mapper mode, the search budget, and (in random mode) the
// fully-resolved rng seed of the layer at index salt. The cost-model version
// is stamped per record by the store itself.
func (e *Evaluator) persistKey(shape, sub string, salt int64) evalcache.Key {
	pk := evalcache.Key{Shape: shape, Sub: sub, Mode: e.cfg.Mode.String()}
	switch e.cfg.Mode {
	case RandomMappings:
		// The random search draws from rand.NewSource(Seed*1_000_003+salt)
		// (see searchLayer), so the persisted salt must be that resolved
		// seed — two runs with different Config.Seed must not share
		// random-mode entries.
		pk.Trials = e.cfg.MapTrials
		pk.Salt = e.cfg.Seed*1_000_003 + salt
	case PrunedMappings:
		pk.Trials = e.cfg.MapTrials
	default:
		// FixedDataflow derives one mapping analytically: no budget, no
		// seed, so entries are shared across all configurations.
	}
	return pk
}

// derive completes decision dec of layer l on design d with its Tier-2
// breakdown. The breakdown is a pure function of the design's sub-key, the
// layer shape and the decision, so records carry only the decision and every
// lookup derives the breakdown here (~2 µs). The context stays on the stack.
func (e *Evaluator) derive(d arch.Design, l workload.Layer, dec evalcache.Entry) perf.Breakdown {
	var b perf.Breakdown
	switch {
	case dec.Found:
		e.cFullEvals.Inc()
		b = perf.NewContext(d, l).Evaluate(dec.Mapping)
	case e.cfg.Mode == RandomMappings:
		b.Incompat = "no valid mapping found by random search"
	case e.cfg.Mode == PrunedMappings:
		b.Incompat = "no valid mapping in pruned space"
	}
	return b
}
