package eval

import (
	"testing"
	"time"

	"xdse/internal/arch"
	"xdse/internal/perf"
	"xdse/internal/workload"
)

// flightSetup returns a design and two layers of ResNet18 on it, with the
// design's sub-key.
func flightSetup(t *testing.T, e *Evaluator) (arch.Design, string, workload.Layer, workload.Layer) {
	t.Helper()
	d, err := e.Config().Space.Decode(compatiblePoint(e.Config().Space))
	if err != nil {
		t.Fatal(err)
	}
	ls := workload.ResNet18().Layers
	return d, perf.MappingSubKey(d), ls[1], ls[2]
}

// startFlight registers a flight for key as layerResult does before it
// searches, so the test can play the searcher.
func startFlight(e *Evaluator, key layerCacheKey) *layerFlight {
	f := new(layerFlight)
	e.mu.Lock()
	e.lflights[key] = f
	e.mu.Unlock()
	return f
}

// waitJoined waits until a goroutine has joined flight f.
func waitJoined(t *testing.T, e *Evaluator, f *layerFlight) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		e.mu.Lock()
		joined := f.done != nil
		e.mu.Unlock()
		if joined {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no goroutine joined the flight")
		}
	}
}

// TestLayerFlightJoinReceivesEntry: a layer asked for while its search is in
// flight joins the flight and gets the searcher's entry, which is cached;
// a flight nobody joined gets neither a channel nor a copy of the entry.
func TestLayerFlightJoinReceivesEntry(t *testing.T) {
	e := newEval(PrunedMappings)
	d, sub, l, other := flightSetup(t, e)
	key := e.layerKeyFor(l, sub, 1)
	f := startFlight(e, key)
	got := make(chan layerEntry, 1)
	go func() { got <- e.layerResult(d, sub, l, 1) }()
	waitJoined(t, e, f)
	want := e.timedSearchLayer(d, l, key, 1)
	e.settle(key, f, &want, nil)
	if g := <-got; g != want {
		t.Fatalf("the waiter got %+v, the searcher found %+v", g.Entry, want.Entry)
	}
	if e.Stats().LayerDedups != 1 {
		t.Errorf("LayerDedups = %d, want 1", e.Stats().LayerDedups)
	}
	if ent := e.layerResult(d, sub, l, 1); ent != want || e.Stats().LayerHits != 1 {
		t.Errorf("the settled entry is not answered from the layer cache (hits %d)", e.Stats().LayerHits)
	}

	okey := e.layerKeyFor(other, sub, 2)
	lone := startFlight(e, okey)
	ent := e.timedSearchLayer(d, other, okey, 2)
	e.settle(okey, lone, &ent, nil)
	if lone.done != nil || lone.ent != nil {
		t.Error("a flight nobody joined was handed the entry")
	}
}

// TestLayerFlightPanicReachesWaiter: when the search a waiter joined panics,
// the waiter re-raises the panic value on its own goroutine, and the layer
// is not cached: the next request searches again.
func TestLayerFlightPanicReachesWaiter(t *testing.T) {
	e := newEval(PrunedMappings)
	d, sub, l, _ := flightSetup(t, e)
	key := e.layerKeyFor(l, sub, 1)
	f := startFlight(e, key)
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		e.layerResult(d, sub, l, 1)
	}()
	waitJoined(t, e, f)
	e.settle(key, f, nil, "search exploded")
	if r := <-recovered; r != "search exploded" {
		t.Fatalf("the waiter recovered %v, want the searcher's panic", r)
	}
	before := e.Stats().LayerMisses
	e.layerResult(d, sub, l, 1)
	if got := e.Stats().LayerMisses; got != before+1 {
		t.Errorf("after a panicked search the layer was answered without searching (misses %d, want %d)", got, before+1)
	}
}

// TestWalkMemoCounters: every pruned search asks the walk memo once. A
// design that differs from an evaluated one only in a link count searches
// every layer anew (its sub-key differs) but replays the walks of the
// first: one miss per layer shape, then one hit per shape.
func TestWalkMemoCounters(t *testing.T) {
	e := newEval(PrunedMappings)
	pt := compatiblePoint(e.Config().Space)
	e.Evaluate(pt)
	twin := pt.Clone()
	twin[arch.PVirt0]++
	e.Evaluate(twin)
	hits := e.Metrics().Counter("eval_walk_memo_hits_total").Value()
	misses := e.Metrics().Counter("eval_walk_memo_misses_total").Value()
	shapes := len(workload.ResNet18().Layers)
	if searches := e.Stats().LayerMisses; int(hits+misses) != searches || searches != 2*shapes {
		t.Fatalf("%d hits and %d misses for %d searches, want %d searches", hits, misses, searches, 2*shapes)
	}
	if int(misses) != shapes || int(hits) != shapes {
		t.Errorf("%d misses and %d hits, want %d of each", misses, hits, shapes)
	}
}
