package fleet

import (
	"testing"
	"time"

	"xdse/internal/obs"
)

func TestRingOwnerDeterministicAndLocal(t *testing.T) {
	reg := obs.NewRegistry()
	addrs := []string{"a:1", "b:2", "c:3"}
	p1 := newPool(addrs, "v", time.Second, 3, nil, reg, nil)
	p2 := newPool(addrs, "v", time.Second, 3, nil, obs.NewRegistry(), nil)
	keys := []string{"ResNet18|k1", "ResNet18|k2", "BERT|k1", "x|y", "m|n"}
	spread := map[int]bool{}
	for _, k := range keys {
		if p1.owner(k) != p2.owner(k) {
			t.Fatalf("ring owner for %q differs between identical pools", k)
		}
		spread[p1.owner(k)] = true
	}
	if len(spread) < 2 {
		t.Fatalf("all %d keys landed on one worker — ring not spreading", len(keys))
	}
}

func TestPickPrefersOwnerAndFailsOver(t *testing.T) {
	reg := obs.NewRegistry()
	addrs := []string{"a:1", "b:2", "c:3"}
	p := newPool(addrs, "v", time.Second, 3, nil, reg, nil)
	for _, w := range p.workers {
		w.setState(workerHealthy)
	}
	key := "ResNet18|k1"
	own := p.owner(key)
	w, idx := p.pick(key, nil)
	if w == nil || idx != own {
		t.Fatalf("pick over a fully healthy pool chose %v, want owner %d", idx, own)
	}
	// Owner down: pick must fail over to a different healthy worker,
	// deterministically.
	p.workers[own].setState(workerUnreachable)
	w2, idx2 := p.pick(key, nil)
	if w2 == nil || idx2 == own {
		t.Fatalf("pick did not fail over from the down owner (got %v)", idx2)
	}
	_, idx3 := p.pick(key, nil)
	if idx3 != idx2 {
		t.Fatalf("failover not deterministic: %d then %d", idx2, idx3)
	}
	// Excluding the failover target too leaves exactly one candidate.
	w4, idx4 := p.pick(key, map[int]bool{idx2: true})
	if w4 == nil || idx4 == idx2 || idx4 == own {
		t.Fatalf("pick with exclusion chose %v", idx4)
	}
	// Everything excluded or down: nil.
	if w5, _ := p.pick(key, map[int]bool{0: true, 1: true, 2: true}); w5 != nil {
		t.Fatal("pick returned a worker despite all being excluded")
	}
	_ = w
	_ = w2
}

func TestQuarantinedWorkerNeverPicked(t *testing.T) {
	p := newPool([]string{"a:1", "b:2"}, "v", time.Second, 3, nil, obs.NewRegistry(), nil)
	p.workers[0].setState(workerQuarantined)
	p.workers[1].setState(workerHealthy)
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5"} {
		w, idx := p.pick(key, nil)
		if w == nil || idx != 1 {
			t.Fatalf("pick(%q) = %v, want the sole healthy worker 1", key, idx)
		}
	}
}
