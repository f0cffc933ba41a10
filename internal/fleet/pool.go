package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
	// workerUnreachable means the last probe failed, the worker reported
	// not-ready (draining), or dispatchFaultLimit dispatches to it in a row
	// hit transient faults. Transient: the monitor keeps probing and the
	// worker rejoins on the next success.
	workerUnreachable
	// workerQuarantined means the worker answered with a different
	// perf.ModelVersion. Permanent for the life of the pool: a skewed cost
	// model would produce records that silently disagree with local
	// evaluation, so the worker never receives shards. The monitor still
	// probes it, but only a matching version lifts the quarantine.
	workerQuarantined
)

// dispatchFaultLimit is the number of consecutive classified-transient
// dispatch faults that mark a worker unreachable. It catches a worker whose
// /readyz stays green while its /eval path fails or times out (overload, a
// partial partition), which the probe alone would keep dispatching to.
const dispatchFaultLimit = 3

// worker is one fleet member. Its fields are atomic so dispatch paths and
// the monitor goroutine read and update them without locks.
type worker struct {
	id     string // address as configured (host:port), used in logs/faults
	url    string // normalized base URL (http://host:port)
	state  atomic.Int32
	faults atomic.Int32 // consecutive transient dispatch faults; see dispatched
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

// pool tracks fleet membership: the static worker list, each worker's
// health as probes and dispatches find it, and the cursor that deals shards
// over the healthy workers in turn.
type pool struct {
	workers []*worker
	cursor  atomic.Uint64 // next worker index (mod len(workers)) to deal a shard to

	client   *http.Client
	version  string // expected perf.ModelVersion for the handshake
	interval time.Duration
	warnf    func(format string, args ...any)

	stop chan struct{}
	wg   sync.WaitGroup

	gHealthy      *obs.Gauge
	cQuarantined  *obs.Counter
	cTransitions  *obs.Counter
	probeInflight sync.WaitGroup
}

// newPool builds the worker list and metric instruments; call start to begin
// probing.
func newPool(addrs []string, version string, interval time.Duration, client *http.Client, reg *obs.Registry, warnf func(string, ...any)) *pool {
	p := &pool{
		client:       client,
		version:      version,
		interval:     interval,
		warnf:        warnf,
		stop:         make(chan struct{}),
		gHealthy:     reg.Gauge("fleet_workers_healthy"),
		cQuarantined: reg.Counter("fleet_workers_quarantined_total"),
		cTransitions: reg.Counter("fleet_worker_transitions_total"),
	}
	for _, a := range addrs {
		url := strings.TrimRight(a, "/")
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		p.workers = append(p.workers, &worker{id: a, url: url})
	}
	return p
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
}

// transition applies a probed or dispatch-discovered state, counting and
// logging edges only.
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

// mark applies a state a dispatch discovered before the monitor did —
// version skew (412) or a run of transient faults — and refreshes the
// healthy gauge.
func (p *pool) mark(w *worker, to workerState, why string) {
	p.transition(w, to, why)
	p.gHealthy.Set(float64(p.healthyCount()))
}

// dispatched feeds one dispatch outcome into w's health. A success resets
// w's count of consecutive transient faults; the dispatchFaultLimit-th
// transient fault in a row marks a healthy w unreachable, and pick skips it
// until the monitor's next good readyz probe restores it. The probe leaves
// the count alone, so a restored worker whose next dispatch faults goes
// straight back to unreachable. A 429 shed is backpressure and a permanent
// fault quarantines or is reported; neither says anything about w's
// dispatch path, so neither touches the count.
func (p *pool) dispatched(w *worker, err *dispatchError) {
	if err == nil {
		w.faults.Store(0)
	} else if err.kind == faultTransient {
		if n := w.faults.Add(1); n >= dispatchFaultLimit && w.healthy() {
			p.mark(w, workerUnreachable, fmt.Sprintf("%d consecutive dispatch faults, last: %v", n, err))
		}
	}
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

// deal moves the cursor past the next healthy worker and returns that
// worker's index, so consecutive shards, from one batch or from concurrent
// runs, alternate over the healthy workers. With none healthy it returns
// the index the cursor passed last; pick then finds no worker.
func (p *pool) deal() int {
	n := uint64(len(p.workers))
	var i int
	for range p.workers {
		i = int((p.cursor.Add(1) - 1) % n)
		if p.workers[i].healthy() {
			break
		}
	}
	return i
}

// pick walks the worker list from index first, wrapping around, and returns
// the first healthy worker whose index is not in tried: the shard's dealt
// worker while it is healthy, then the workers after it in list order. It
// returns (nil, -1) when no healthy untried worker exists.
func (p *pool) pick(first int, tried map[int]bool) (*worker, int) {
	for off := range p.workers {
		i := (first + off) % len(p.workers)
		if w := p.workers[i]; !tried[i] && w.healthy() {
			return w, i
		}
	}
	return nil, -1
}
