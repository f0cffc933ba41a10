package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xdse/internal/obs"
)

// workerState classifies a pool member for dispatch decisions.
type workerState int32

const (
	// workerUnknown means the worker has not been probed yet.
	workerUnknown workerState = iota
	// workerHealthy means the last readyz probe succeeded with a matching
	// model version; the worker is eligible for shards.
	workerHealthy
	// workerUnreachable means the last probe failed or the worker reported
	// not-ready (draining). Transient: the monitor keeps probing and the
	// worker rejoins on the next success.
	workerUnreachable
	// workerQuarantined means the worker answered with a different
	// perf.ModelVersion. Permanent for the life of the pool: a skewed cost
	// model would produce records that silently disagree with local
	// evaluation, so the worker never receives shards. The monitor still
	// probes it, but only a matching version lifts the quarantine.
	workerQuarantined
)

// breakerState is a worker's circuit-breaker position. The breaker guards
// the /eval dispatch path specifically: a worker can answer /readyz promptly
// (so the membership monitor keeps it healthy) while every dispatch to it
// fails or times out — an overloaded or partially partitioned worker. The
// breaker notices that pattern from dispatch outcomes and sheds traffic
// without waiting out per-shard backoff schedules.
type breakerState int32

const (
	// breakerClosed passes dispatches through (the normal state).
	breakerClosed breakerState = iota
	// breakerHalfOpen admits exactly one trial dispatch after a successful
	// readyz probe; its outcome decides closed vs re-open.
	breakerHalfOpen
	// breakerOpen sheds all dispatches. Only the health monitor's next
	// successful readyz probe moves it to half-open — wall-clock cooldowns
	// would make chaos runs unreplayable.
	breakerOpen
)

// breaker is one worker's circuit breaker. Guarded by its own mutex; the
// hot-path check is a few instructions under an uncontended lock.
type breaker struct {
	mu          sync.Mutex
	state       breakerState
	consecutive int  // consecutive classified-transient dispatch faults
	probing     bool // the single half-open trial is outstanding
}

// worker is one fleet member. State is atomic so dispatch paths read it
// without locks while the monitor goroutine updates it.
type worker struct {
	id    string // address as configured (host:port), used in logs/faults
	url   string // normalized base URL (http://host:port)
	state atomic.Int32

	br       breaker
	gBreaker *obs.Gauge // 0 closed, 1 half-open, 2 open
}

// setState transitions the worker, returning the previous state.
func (w *worker) setState(s workerState) workerState {
	return workerState(w.state.Swap(int32(s)))
}

// get returns the worker's current state.
func (w *worker) get() workerState {
	return workerState(w.state.Load())
}

// healthy reports whether the worker is currently eligible for shards.
func (w *worker) healthy() bool { return w.get() == workerHealthy }

// ringVirtualNodes is the number of virtual nodes per worker on the
// consistent-hash ring — enough to spread shard ownership evenly across a
// handful of workers without making the ring walk expensive.
const ringVirtualNodes = 64

// ringSlot is one virtual node: a hash position owned by workers[idx].
type ringSlot struct {
	hash uint32
	idx  int
}

// pool tracks fleet membership: the static worker list, the consistent-hash
// ring over it, and each worker's probed health. The ring is built once over
// ALL workers (not just healthy ones) so shard ownership — and therefore
// evalcache locality — is stable while health fluctuates; dispatch walks the
// ring from the owner to the first healthy worker instead.
type pool struct {
	workers []*worker
	ring    []ringSlot

	client   *http.Client
	version  string // expected perf.ModelVersion for the handshake
	interval time.Duration
	breakerK int // consecutive transient faults that open a breaker
	warnf    func(format string, args ...any)

	stop chan struct{}
	wg   sync.WaitGroup

	gHealthy      *obs.Gauge
	cQuarantined  *obs.Counter
	cTransitions  *obs.Counter
	cBreakerOpens *obs.Counter
	probeInflight sync.WaitGroup
}

// newPool builds the membership ring and metric instruments; call start to
// begin probing.
func newPool(addrs []string, version string, interval time.Duration, breakerK int, client *http.Client, reg *obs.Registry, warnf func(string, ...any)) *pool {
	p := &pool{
		client:        client,
		version:       version,
		interval:      interval,
		breakerK:      breakerK,
		warnf:         warnf,
		stop:          make(chan struct{}),
		gHealthy:      reg.Gauge("fleet_workers_healthy"),
		cQuarantined:  reg.Counter("fleet_workers_quarantined_total"),
		cTransitions:  reg.Counter("fleet_worker_transitions_total"),
		cBreakerOpens: reg.Counter("fleet_breaker_opens_total"),
	}
	for _, a := range addrs {
		url := strings.TrimRight(a, "/")
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		p.workers = append(p.workers, &worker{
			id:       a,
			url:      url,
			gBreaker: reg.Gauge(`fleet_breaker_state{worker="` + a + `"}`),
		})
	}
	for i, w := range p.workers {
		for v := 0; v < ringVirtualNodes; v++ {
			p.ring = append(p.ring, ringSlot{hash: ringHash(fmt.Sprintf("%s#%d", w.id, v)), idx: i})
		}
	}
	sort.Slice(p.ring, func(a, b int) bool {
		if p.ring[a].hash != p.ring[b].hash {
			return p.ring[a].hash < p.ring[b].hash
		}
		return p.ring[a].idx < p.ring[b].idx
	})
	return p
}

// ringHash is the pool's position hash: FNV-1a, chosen because it is stable
// across processes and Go versions (shard ownership must agree between runs
// for cache locality, though never for correctness).
func ringHash(s string) uint32 {
	h := fnv.New32a()
	io.WriteString(h, s)
	return h.Sum32()
}

// start runs one synchronous probe round (so callers observe initial
// membership immediately) and then launches the background monitor.
func (p *pool) start() {
	p.probeAll()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

// close stops the monitor and waits for in-flight probes.
func (p *pool) close() {
	close(p.stop)
	p.wg.Wait()
	p.probeInflight.Wait()
}

// probeAll probes every worker concurrently and refreshes the healthy gauge.
func (p *pool) probeAll() {
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		p.probeInflight.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer p.probeInflight.Done()
			p.probe(w)
		}(w)
	}
	wg.Wait()
	p.gHealthy.Set(float64(p.healthyCount()))
}

// readyzBody is the subset of the worker's readiness payload the pool needs
// for the membership handshake.
type readyzBody struct {
	Status       string `json:"status"`
	ModelVersion string `json:"model_version"`
}

// probe performs one readiness + model-version handshake against w and
// transitions its state.
func (p *pool) probe(w *worker) {
	to := p.interval * 2
	if to < 250*time.Millisecond {
		to = 250 * time.Millisecond
	}
	req, err := http.NewRequest(http.MethodGet, w.url+"/readyz", nil)
	if err != nil {
		p.transition(w, workerUnreachable, "bad url: "+err.Error())
		return
	}
	cl := *p.client
	cl.Timeout = to
	resp, err := cl.Do(req)
	if err != nil {
		p.transition(w, workerUnreachable, err.Error())
		return
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		p.transition(w, workerUnreachable, fmt.Sprintf("readyz status %d", resp.StatusCode))
		return
	}
	var body readyzBody
	if err := json.Unmarshal(data, &body); err != nil {
		p.transition(w, workerUnreachable, "readyz decode: "+err.Error())
		return
	}
	if body.ModelVersion != p.version {
		p.transition(w, workerQuarantined, fmt.Sprintf("model version %q, want %q", body.ModelVersion, p.version))
		return
	}
	p.transition(w, workerHealthy, "")
	p.breakerProbeHealthy(w)
}

// breakerProbeHealthy is the open → half-open edge: a successful readyz
// probe of a worker whose breaker is open earns it exactly one trial
// dispatch. The probe loop is the breaker's only clock, so an open breaker
// with no probing (tests, stopped monitor) stays open deterministically.
func (p *pool) breakerProbeHealthy(w *worker) {
	w.br.mu.Lock()
	defer w.br.mu.Unlock()
	if w.br.state != breakerOpen {
		return
	}
	w.br.state = breakerHalfOpen
	w.br.probing = false
	w.gBreaker.Set(float64(breakerHalfOpen))
	if p.warnf != nil {
		p.warnf("fleet: worker %s breaker half-open (readyz ok; one trial dispatch allowed)", w.id)
	}
}

// breakerAdmit reports whether w's breaker passes a dispatch right now,
// consuming the single half-open trial slot when it takes it. Callers must
// follow every admitted dispatch with breakerResult or breakerRelease.
func (p *pool) breakerAdmit(w *worker) bool {
	w.br.mu.Lock()
	defer w.br.mu.Unlock()
	switch w.br.state {
	case breakerOpen:
		return false
	case breakerHalfOpen:
		if w.br.probing {
			return false
		}
		w.br.probing = true
	}
	return true
}

// breakerResult feeds one dispatch outcome into w's breaker. transientFault
// is true for classified-transient faults only — permanent faults (version
// skew, bad request) quarantine or report instead and say nothing about the
// worker's dispatch path health. Returns true when this outcome opened
// (or re-opened) the breaker, so the caller can shed to the next ring
// candidate immediately instead of burning its backoff schedule.
func (p *pool) breakerResult(w *worker, transientFault bool) bool {
	w.br.mu.Lock()
	defer w.br.mu.Unlock()
	w.br.probing = false
	if !transientFault {
		w.br.consecutive = 0
		if w.br.state != breakerClosed {
			w.br.state = breakerClosed
			w.gBreaker.Set(float64(breakerClosed))
			if p.warnf != nil {
				p.warnf("fleet: worker %s breaker closed (trial dispatch succeeded)", w.id)
			}
		}
		return false
	}
	w.br.consecutive++
	opened := false
	switch w.br.state {
	case breakerHalfOpen:
		// The trial failed: straight back to open.
		opened = true
	case breakerClosed:
		opened = w.br.consecutive >= p.breakerK
	}
	if opened {
		w.br.state = breakerOpen
		w.gBreaker.Set(float64(breakerOpen))
		p.cBreakerOpens.Inc()
		if p.warnf != nil {
			p.warnf("fleet: worker %s breaker open after %d consecutive transient faults", w.id, w.br.consecutive)
		}
	}
	return opened
}

// breakerRelease returns w's half-open trial slot without an outcome: the
// admitted dispatch said nothing about w's dispatch path (it lost a hedge
// race, or w shed it with 429), so the next admitted dispatch is the trial.
func (p *pool) breakerRelease(w *worker) {
	w.br.mu.Lock()
	w.br.probing = false
	w.br.mu.Unlock()
}

// breakerLines renders the non-closed breakers for the campaign fault
// report.
func (p *pool) breakerLines() []string {
	var out []string
	for _, w := range p.workers {
		w.br.mu.Lock()
		st, n := w.br.state, w.br.consecutive
		w.br.mu.Unlock()
		switch st {
		case breakerOpen:
			out = append(out, fmt.Sprintf("worker %s: breaker open (%d consecutive transient faults)", w.id, n))
		case breakerHalfOpen:
			out = append(out, fmt.Sprintf("worker %s: breaker half-open (awaiting trial dispatch)", w.id))
		}
	}
	return out
}

// transition applies a probed state, counting and logging edges only.
func (p *pool) transition(w *worker, to workerState, why string) {
	from := w.setState(to)
	if from == to {
		return
	}
	p.cTransitions.Inc()
	if to == workerQuarantined {
		p.cQuarantined.Inc()
	}
	if p.warnf != nil {
		switch to {
		case workerHealthy:
			p.warnf("fleet: worker %s healthy", w.id)
		case workerQuarantined:
			p.warnf("fleet: worker %s quarantined: %s", w.id, why)
		default:
			p.warnf("fleet: worker %s unreachable: %s", w.id, why)
		}
	}
}

// quarantine forcibly quarantines w — used when a dispatch discovers version
// skew (412) before the monitor does.
func (p *pool) quarantine(w *worker, why string) {
	p.transition(w, workerQuarantined, why)
	p.gHealthy.Set(float64(p.healthyCount()))
}

// healthyCount returns the number of currently dispatchable workers.
func (p *pool) healthyCount() int {
	n := 0
	for _, w := range p.workers {
		if w.healthy() {
			n++
		}
	}
	return n
}

// owner returns the ring owner index for key — the worker that would hold
// key's cache locality, health notwithstanding.
func (p *pool) owner(key string) int {
	if len(p.ring) == 0 {
		return 0
	}
	h := ringHash(key)
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	if i == len(p.ring) {
		i = 0
	}
	return p.ring[i].idx
}

// pick walks the ring clockwise from key's owner and returns the first
// healthy, breaker-admitted worker whose index is not in tried, preserving
// locality (the owner is preferred; failover order is deterministic).
// Picking a half-open worker consumes its single trial slot, so callers must
// dispatch to what pick returns and report the outcome via breakerResult.
// Returns (nil, -1) when no dispatchable untried worker exists.
func (p *pool) pick(key string, tried map[int]bool) (*worker, int) {
	return p.walk(key, tried, p.breakerAdmit)
}

// pickable reports whether pick would currently find a worker, without
// consuming any half-open trial slot — the "is there somewhere to shed to"
// check of the open-breaker fast path.
func (p *pool) pickable(key string, tried map[int]bool) bool {
	w, _ := p.walk(key, tried, func(w *worker) bool {
		w.br.mu.Lock()
		defer w.br.mu.Unlock()
		return w.br.state == breakerClosed || (w.br.state == breakerHalfOpen && !w.br.probing)
	})
	return w != nil
}

// walk implements pick's ring traversal with a pluggable breaker gate.
func (p *pool) walk(key string, tried map[int]bool, admit func(*worker) bool) (*worker, int) {
	if len(p.ring) == 0 {
		return nil, -1
	}
	h := ringHash(key)
	start := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	seen := make(map[int]bool, len(p.workers))
	for off := 0; off < len(p.ring); off++ {
		slot := p.ring[(start+off)%len(p.ring)]
		if seen[slot.idx] {
			continue
		}
		seen[slot.idx] = true
		if tried[slot.idx] {
			continue
		}
		w := p.workers[slot.idx]
		if w.healthy() && admit(w) {
			return w, slot.idx
		}
		if len(seen) == len(p.workers) {
			break
		}
	}
	return nil, -1
}
