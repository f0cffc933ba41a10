package eval

import "xdse/internal/obs"

// fifoMap is a map bounded by first-insertion order: once it holds more than
// limit keys, the oldest-inserted keys are dropped, each one counted on
// evicted. Overwriting a present key keeps its place in the queue. It is not
// safe for concurrent use; the Evaluator guards its three instances with e.mu.
type fifoMap[K comparable, V any] struct {
	m       map[K]V
	order   []K // keys in first-insertion order; order[head:] are live
	head    int
	limit   int
	evicted *obs.Counter
}

func newFIFOMap[K comparable, V any](limit int, evicted *obs.Counter) fifoMap[K, V] {
	return fifoMap[K, V]{m: make(map[K]V), limit: limit, evicted: evicted}
}

func (f *fifoMap[K, V]) get(k K) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

// put stores v under k, then evicts the oldest keys beyond the limit.
func (f *fifoMap[K, V]) put(k K, v V) {
	if _, ok := f.m[k]; !ok {
		f.order = append(f.order, k)
	}
	f.m[k] = v
	for len(f.m) > f.limit {
		delete(f.m, f.order[f.head])
		f.head++
		f.evicted.Inc()
	}
	// Compact the eviction queue once the dead prefix dominates.
	if f.head > len(f.order)/2 && f.head > 64 {
		f.order = append([]K(nil), f.order[f.head:]...)
		f.head = 0
	}
}
