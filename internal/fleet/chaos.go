package fleet

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xdse/internal/obs"
)

// ChaosPolicy deterministically injects faults at the coordinator↔worker RPC
// boundary, mirroring eval.FaultPolicy's design one layer down: faults are
// addressed by dispatch ordinal (the 0-based count of /eval attempts the
// injecting side has made), never by wall clock or randomness, so a chaos
// run is replayable. The same policy type drives both sides of the wire —
// the coordinator injects before/after its POST, a worker injects through
// Wrap around its /eval handler — and every fault kind lands on a path the
// fleet already survives: drops, delays, and 5xx storms are classified
// transient; truncation breaks the response decode (transient); corruption
// either breaks the decode or trips a record's CRC (that record is dropped
// and its layer recomputed locally). None of them can alter the merged
// campaign, only its speed — which is exactly what chaos runs exist to prove.
//
// Ordinals are assigned in dispatch order, so they are stable only while
// dispatch is serialized (one shard in flight); concurrent shards interleave
// ordinal assignment nondeterministically. Correctness gates never depend on
// where a fault lands — only replay of a specific chaos script does — so
// tests that assert exact injection sites serialize their dispatches, like
// eval.FaultPolicy tests run with Workers=1.
type ChaosPolicy struct {
	// Seed keys the deterministic corruption byte positions. Two runs with
	// the same seed corrupt the same offsets.
	Seed int64
	// DropAt lists ordinals whose connection is dropped before any bytes
	// are exchanged (coordinator: a synthetic transport error; worker: an
	// aborted response).
	DropAt []int
	// DelayAt lists ordinals delayed by Delay before proceeding.
	DelayAt []int
	// Delay is the fixed injected latency for DelayAt ordinals. Default
	// 100ms when any DelayAt is set.
	Delay time.Duration
	// TruncateAt lists ordinals whose response body is cut to its first
	// half — a torn read.
	TruncateAt []int
	// CorruptAt lists ordinals whose response body has one byte flipped at
	// a Seed-derived position.
	CorruptAt []int
	// StatusAt maps ordinals to an injected HTTP status (a 503 storm is a
	// contiguous ordinal range mapped to 503). Statuses are classified
	// exactly like real ones: 429/5xx transient, other 4xx permanent.
	StatusAt map[int]int
	// Partitions script unreachability windows: dispatches to a matching
	// worker with ordinals in [From, To] fail as dropped connections.
	Partitions []Partition
}

// Partition is one scripted network partition: Worker is unreachable for
// every dispatch ordinal in the inclusive window [From, To]. Worker "" or
// "*" matches all workers (on a serve daemon, which injects for itself, any
// partition whose worker matches its configured self-ID applies).
type Partition struct {
	Worker   string
	From, To int
}

// matches reports whether the partition blackholes worker at ord.
func (p Partition) matches(worker string, ord int) bool {
	if ord < p.From || ord > p.To {
		return false
	}
	return p.Worker == "" || p.Worker == "*" || p.Worker == worker
}

// Enabled reports whether the policy injects anything at all.
func (p *ChaosPolicy) Enabled() bool {
	if p == nil {
		return false
	}
	return len(p.DropAt) > 0 || len(p.DelayAt) > 0 || len(p.TruncateAt) > 0 ||
		len(p.CorruptAt) > 0 || len(p.StatusAt) > 0 || len(p.Partitions) > 0
}

// delay resolves the injected latency, defaulting when the spec named delay
// ordinals but no duration.
func (p *ChaosPolicy) delay() time.Duration {
	if p.Delay > 0 {
		return p.Delay
	}
	return 100 * time.Millisecond
}

// containsInt reports membership of ord in a small ordinal list.
func containsInt(list []int, ord int) bool {
	for _, v := range list {
		if v == ord {
			return true
		}
	}
	return false
}

// corruptByte flips one byte of body in place-copy at a position derived
// only from (seed, ord, len) — deterministic, so a replayed chaos run
// corrupts the identical offset. The position hash is FNV-1a, which is
// stable across processes and Go versions. XOR with 0x5A guarantees the
// byte changes.
func corruptByte(body []byte, seed int64, ord int) []byte {
	if len(body) == 0 {
		return body
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "chaos|%d|%d", seed, ord)
	pos := int(h.Sum32()) % len(body)
	out := make([]byte, len(body))
	copy(out, body)
	out[pos] ^= 0x5A
	return out
}

// ChaosInjector is one side's runtime for a ChaosPolicy: the ordinal counter
// plus injection counters. A nil injector (from a nil/empty policy) is the
// disabled state; every method no-ops, so call sites need no guards.
type ChaosInjector struct {
	p    ChaosPolicy
	self string
	ord  atomic.Int64
	reg  *obs.Registry
}

// NewInjector binds a runtime to the policy. self names the injecting side
// for partition matching: the coordinator passes "" (it knows each dispatch's
// target worker and passes it to admit); a serve daemon passes its own
// configured identity so coordinator-addressed partitions can be scripted on
// the worker side too. reg receives fleet_chaos_injected_total{kind=...}
// counters (nil allocates a private registry).
func (p *ChaosPolicy) NewInjector(self string, reg *obs.Registry) *ChaosInjector {
	if !p.Enabled() {
		return nil
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &ChaosInjector{p: *p, self: self, reg: reg}
}

// next allocates the next dispatch ordinal.
func (ci *ChaosInjector) next() int {
	return int(ci.ord.Add(1) - 1)
}

// count records one injected fault of the given kind.
func (ci *ChaosInjector) count(kind string) {
	ci.reg.Counter(`fleet_chaos_injected_total{kind="` + kind + `"}`).Inc()
}

// admit decides the pre-flight fate of the dispatch with ordinal ord to
// worker: a nil error proceeds (after any injected delay, which admit
// sleeps itself bounded by done), a non-nil error is the injected fault,
// shaped exactly like its real counterpart: 5xx statuses and
// drops/partitions are transient, 429 is a shed, other statuses permanent.
func (ci *ChaosInjector) admit(done <-chan struct{}, ord int, worker string) error {
	if ci == nil {
		return nil
	}
	for _, part := range ci.p.Partitions {
		if part.matches(worker, ord) {
			ci.count("partition")
			return fmt.Errorf("chaos: partition: worker %s unreachable (ordinal %d)", worker, ord)
		}
	}
	if containsInt(ci.p.DropAt, ord) {
		ci.count("drop")
		return fmt.Errorf("chaos: connection dropped (ordinal %d)", ord)
	}
	if containsInt(ci.p.DelayAt, ord) {
		ci.count("delay")
		t := time.NewTimer(ci.p.delay())
		defer t.Stop()
		select {
		case <-done:
			return fmt.Errorf("chaos: delayed dispatch cancelled (ordinal %d)", ord)
		case <-t.C:
		}
	}
	if st, ok := ci.p.StatusAt[ord]; ok {
		ci.count("status")
		err := fmt.Errorf("chaos: injected status %d (ordinal %d)", st, ord)
		if st == http.StatusTooManyRequests {
			return &shedError{err}
		}
		if st >= 500 {
			return err
		}
		return &permanentError{err}
	}
	return nil
}

// mutate applies post-flight body faults (truncation, corruption) for ord.
func (ci *ChaosInjector) mutate(ord int, body []byte) []byte {
	if ci == nil {
		return body
	}
	if containsInt(ci.p.TruncateAt, ord) {
		ci.count("truncate")
		body = body[:len(body)/2]
	}
	if containsInt(ci.p.CorruptAt, ord) {
		ci.count("corrupt")
		body = corruptByte(body, ci.p.Seed, ord)
	}
	return body
}

// Wrap is the worker-side injection point: it decorates an /eval handler so
// each arriving request consumes one ordinal and suffers the policy's fate —
// drop (aborted connection), delay, injected status, or a truncated/corrupted
// response body. A nil injector returns next unchanged.
func (ci *ChaosInjector) Wrap(next http.Handler) http.Handler {
	if ci == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ord := ci.next()
		for _, part := range ci.p.Partitions {
			if part.matches(ci.self, ord) {
				ci.count("partition")
				panic(http.ErrAbortHandler)
			}
		}
		if containsInt(ci.p.DropAt, ord) {
			ci.count("drop")
			panic(http.ErrAbortHandler)
		}
		if containsInt(ci.p.DelayAt, ord) {
			ci.count("delay")
			t := time.NewTimer(ci.p.delay())
			defer t.Stop()
			select {
			case <-r.Context().Done():
				return
			case <-t.C:
			}
		}
		if st, ok := ci.p.StatusAt[ord]; ok {
			ci.count("status")
			http.Error(w, fmt.Sprintf("chaos: injected status %d (ordinal %d)", st, ord), st)
			return
		}
		if !containsInt(ci.p.TruncateAt, ord) && !containsInt(ci.p.CorruptAt, ord) {
			next.ServeHTTP(w, r)
			return
		}
		rec := &bodyRecorder{header: make(http.Header), status: http.StatusOK}
		next.ServeHTTP(rec, r)
		body := ci.mutate(ord, rec.body)
		for k, vs := range rec.header {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.status)
		w.Write(body)
	})
}

// bodyRecorder buffers a handler's response so Wrap can mutate it.
type bodyRecorder struct {
	header http.Header
	status int
	body   []byte
}

// Header implements http.ResponseWriter.
func (r *bodyRecorder) Header() http.Header { return r.header }

// WriteHeader implements http.ResponseWriter.
func (r *bodyRecorder) WriteHeader(status int) { r.status = status }

// Write implements http.ResponseWriter.
func (r *bodyRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// ParseChaosSpec parses the CLI chaos grammar into a policy. Directives are
// separated by commas or spaces:
//
//	drop@N        drop the connection at ordinal N
//	delay@N       delay ordinal N by the policy delay
//	truncate@N    cut ordinal N's response body in half
//	corrupt@N     flip one byte of ordinal N's response body
//	status@N=C    answer ordinal N with HTTP status C
//	storm@N-M=C   answer every ordinal in [N,M] with status C
//	partition@N-M[=WORKER]  WORKER (default all) unreachable for [N,M]
//	delay=DUR     the injected delay duration (default 100ms)
//	seed=N        corruption position seed
//
// An empty spec returns (nil, nil): chaos disabled.
func ParseChaosSpec(spec string) (*ChaosPolicy, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	if len(fields) == 0 {
		return nil, nil
	}
	p := &ChaosPolicy{StatusAt: map[int]int{}}
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "delay="):
			d, err := time.ParseDuration(f[len("delay="):])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("chaos: bad delay %q", f)
			}
			p.Delay = d
		case strings.HasPrefix(f, "seed="):
			n, err := strconv.ParseInt(f[len("seed="):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q", f)
			}
			p.Seed = n
		case strings.HasPrefix(f, "drop@"):
			ord, err := parseOrd(f[len("drop@"):])
			if err != nil {
				return nil, err
			}
			p.DropAt = append(p.DropAt, ord)
		case strings.HasPrefix(f, "delay@"):
			ord, err := parseOrd(f[len("delay@"):])
			if err != nil {
				return nil, err
			}
			p.DelayAt = append(p.DelayAt, ord)
		case strings.HasPrefix(f, "truncate@"):
			ord, err := parseOrd(f[len("truncate@"):])
			if err != nil {
				return nil, err
			}
			p.TruncateAt = append(p.TruncateAt, ord)
		case strings.HasPrefix(f, "corrupt@"):
			ord, err := parseOrd(f[len("corrupt@"):])
			if err != nil {
				return nil, err
			}
			p.CorruptAt = append(p.CorruptAt, ord)
		case strings.HasPrefix(f, "status@"):
			at, val, ok := strings.Cut(f[len("status@"):], "=")
			if !ok {
				return nil, fmt.Errorf("chaos: status needs @N=CODE: %q", f)
			}
			ord, err := parseOrd(at)
			if err != nil {
				return nil, err
			}
			st, err := parseStatus(val)
			if err != nil {
				return nil, err
			}
			p.StatusAt[ord] = st
		case strings.HasPrefix(f, "storm@"):
			at, val, ok := strings.Cut(f[len("storm@"):], "=")
			if !ok {
				return nil, fmt.Errorf("chaos: storm needs @N-M=CODE: %q", f)
			}
			from, to, err := parseRange(at)
			if err != nil {
				return nil, err
			}
			st, err := parseStatus(val)
			if err != nil {
				return nil, err
			}
			for o := from; o <= to; o++ {
				p.StatusAt[o] = st
			}
		case strings.HasPrefix(f, "partition@"):
			at, workerID, _ := strings.Cut(f[len("partition@"):], "=")
			from, to, err := parseRange(at)
			if err != nil {
				return nil, err
			}
			p.Partitions = append(p.Partitions, Partition{Worker: workerID, From: from, To: to})
		default:
			return nil, fmt.Errorf("chaos: unknown directive %q", f)
		}
	}
	sort.Ints(p.DropAt)
	sort.Ints(p.DelayAt)
	sort.Ints(p.TruncateAt)
	sort.Ints(p.CorruptAt)
	if !p.Enabled() {
		return nil, nil
	}
	return p, nil
}

// parseOrd parses one non-negative dispatch ordinal.
func parseOrd(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("chaos: bad ordinal %q", s)
	}
	return n, nil
}

// parseRange parses an inclusive "N-M" ordinal window.
func parseRange(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("chaos: bad range %q (want N-M)", s)
	}
	from, err := parseOrd(a)
	if err != nil {
		return 0, 0, err
	}
	to, err := parseOrd(b)
	if err != nil {
		return 0, 0, err
	}
	if to < from {
		return 0, 0, fmt.Errorf("chaos: inverted range %q", s)
	}
	return from, to, nil
}

// parseStatus parses an injected HTTP status code.
func parseStatus(s string) (int, error) {
	st, err := strconv.Atoi(s)
	if err != nil || st < 100 || st > 599 {
		return 0, fmt.Errorf("chaos: bad status %q", s)
	}
	return st, nil
}
