package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"xdse/internal/obs"
)

// ChaosPolicy deterministically injects faults at a worker's POST /eval
// surface, mirroring eval.FaultPolicy's design one layer down: faults are
// addressed by request ordinal (the 0-based count of /eval requests the
// worker has received), never by wall clock or randomness, so a chaos run is
// replayable. Wrap is the one injection point. It sits outside the code under
// test, so the coordinator meets every fault as a genuine HTTP outcome, and
// every fault kind lands on a path the fleet already survives: drops, delays
// and 5xx storms are transient; truncation breaks the response decode
// (transient); corruption either breaks the decode or trips a record's CRC
// (that record is dropped and its layer recomputed locally). None of them can
// alter the merged campaign, only its speed — which is exactly what chaos
// runs exist to prove.
//
// Ordinals are assigned in arrival order, so they are stable only while
// requests arrive one at a time; concurrent shards interleave ordinal
// assignment nondeterministically. Correctness gates never depend on where a
// fault lands — only replay of a specific chaos script does.
type ChaosPolicy struct {
	// Seed keys the deterministic corruption byte positions. Two runs with
	// the same seed corrupt the same offsets.
	Seed int64
	// DropAt lists ordinals whose connection is aborted before any bytes
	// are answered.
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
	// contiguous ordinal range mapped to 503). The coordinator classifies
	// them exactly like real ones: 429 is a shed, 5xx transient, other 4xx
	// permanent.
	StatusAt map[int]int
}

// Enabled reports whether the policy injects anything at all.
func (p *ChaosPolicy) Enabled() bool {
	if p == nil {
		return false
	}
	return len(p.DropAt) > 0 || len(p.DelayAt) > 0 || len(p.TruncateAt) > 0 ||
		len(p.CorruptAt) > 0 || len(p.StatusAt) > 0
}

// delay resolves the injected latency, defaulting when the spec named delay
// ordinals but no duration.
func (p *ChaosPolicy) delay() time.Duration {
	if p.Delay > 0 {
		return p.Delay
	}
	return 100 * time.Millisecond
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

// ChaosInjector is a worker's runtime for a ChaosPolicy: the ordinal counter
// plus injection counters. A nil injector (from a nil/empty policy) is the
// disabled state: Wrap returns its handler unchanged.
type ChaosInjector struct {
	p   ChaosPolicy
	ord atomic.Int64
	reg *obs.Registry
}

// NewInjector binds a runtime to the policy. reg receives
// fleet_chaos_injected_total{kind=...} counters (nil allocates a private
// registry).
func (p *ChaosPolicy) NewInjector(reg *obs.Registry) *ChaosInjector {
	if !p.Enabled() {
		return nil
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &ChaosInjector{p: *p, reg: reg}
}

// next allocates the next request ordinal.
func (ci *ChaosInjector) next() int {
	return int(ci.ord.Add(1) - 1)
}

// count records one injected fault of the given kind.
func (ci *ChaosInjector) count(kind string) {
	ci.reg.Counter(`fleet_chaos_injected_total{kind="` + kind + `"}`).Inc()
}

// mutate applies the response body faults (truncation, corruption) for ord.
func (ci *ChaosInjector) mutate(ord int, body []byte) []byte {
	if slices.Contains(ci.p.TruncateAt, ord) {
		ci.count("truncate")
		body = body[:len(body)/2]
	}
	if slices.Contains(ci.p.CorruptAt, ord) {
		ci.count("corrupt")
		body = corruptByte(body, ci.p.Seed, ord)
	}
	return body
}

// Wrap is the injection point: it decorates a worker's /eval handler so each
// arriving request consumes one ordinal and suffers the policy's fate — drop
// (aborted connection), delay (cut short when the client gives up), injected
// status, or a truncated/corrupted response body. A nil injector returns next
// unchanged.
func (ci *ChaosInjector) Wrap(next http.Handler) http.Handler {
	if ci == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ord := ci.next()
		if slices.Contains(ci.p.DropAt, ord) {
			ci.count("drop")
			panic(http.ErrAbortHandler)
		}
		if slices.Contains(ci.p.DelayAt, ord) {
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
		if !slices.Contains(ci.p.TruncateAt, ord) && !slices.Contains(ci.p.CorruptAt, ord) {
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

// ParseChaosSpec parses the `xdse serve -chaos` grammar into a policy.
// Directives are separated by commas or spaces:
//
//	drop@N        abort the connection at ordinal N
//	drop@N-M      abort it at every ordinal in [N,M]
//	delay@N       delay ordinal N by the policy delay
//	truncate@N    cut ordinal N's response body in half
//	corrupt@N     flip one byte of ordinal N's response body
//	status@N=C    answer ordinal N with HTTP status C
//	storm@N-M=C   answer every ordinal in [N,M] with status C
//	delay=DUR     the injected delay duration (default 100ms)
//	seed=N        corruption position seed
//
// An empty or effect-free spec returns (nil, nil): chaos disabled. An error
// names the directive it could not parse.
func ParseChaosSpec(spec string) (*ChaosPolicy, error) {
	fields := strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	p := &ChaosPolicy{StatusAt: map[int]int{}}
	for _, f := range fields {
		if err := p.parseDirective(f); err != nil {
			return nil, fmt.Errorf("chaos: directive %q: %w", f, err)
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

// parseDirective applies one directive of the ParseChaosSpec grammar to p.
func (p *ChaosPolicy) parseDirective(f string) error {
	switch {
	case strings.HasPrefix(f, "delay="):
		d, err := time.ParseDuration(f[len("delay="):])
		if err != nil || d <= 0 {
			return errors.New("want a positive duration")
		}
		p.Delay = d
	case strings.HasPrefix(f, "seed="):
		n, err := strconv.ParseInt(f[len("seed="):], 10, 64)
		if err != nil {
			return errors.New("want an integer seed")
		}
		p.Seed = n
	case strings.HasPrefix(f, "drop@"):
		at := f[len("drop@"):]
		if !strings.Contains(at, "-") {
			return appendOrd(&p.DropAt, at)
		}
		from, to, err := parseRange(at)
		if err != nil {
			return err
		}
		for o := from; o <= to; o++ {
			p.DropAt = append(p.DropAt, o)
		}
	case strings.HasPrefix(f, "delay@"):
		return appendOrd(&p.DelayAt, f[len("delay@"):])
	case strings.HasPrefix(f, "truncate@"):
		return appendOrd(&p.TruncateAt, f[len("truncate@"):])
	case strings.HasPrefix(f, "corrupt@"):
		return appendOrd(&p.CorruptAt, f[len("corrupt@"):])
	case strings.HasPrefix(f, "status@"):
		at, val, ok := strings.Cut(f[len("status@"):], "=")
		if !ok {
			return errors.New("want status@N=CODE")
		}
		ord, err := parseOrd(at)
		if err != nil {
			return err
		}
		st, err := parseStatus(val)
		if err != nil {
			return err
		}
		p.StatusAt[ord] = st
	case strings.HasPrefix(f, "storm@"):
		at, val, ok := strings.Cut(f[len("storm@"):], "=")
		if !ok {
			return errors.New("want storm@N-M=CODE")
		}
		from, to, err := parseRange(at)
		if err != nil {
			return err
		}
		st, err := parseStatus(val)
		if err != nil {
			return err
		}
		for o := from; o <= to; o++ {
			p.StatusAt[o] = st
		}
	default:
		return errors.New("unknown directive")
	}
	return nil
}

// appendOrd parses one ordinal onto list.
func appendOrd(list *[]int, s string) error {
	ord, err := parseOrd(s)
	if err != nil {
		return err
	}
	*list = append(*list, ord)
	return nil
}

// parseOrd parses one non-negative request ordinal.
func parseOrd(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad ordinal %q", s)
	}
	return n, nil
}

// parseRange parses an inclusive "N-M" ordinal window.
func parseRange(s string) (int, int, error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return 0, 0, fmt.Errorf("bad range %q (want N-M)", s)
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
		return 0, 0, fmt.Errorf("inverted range %q", s)
	}
	return from, to, nil
}

// parseStatus parses an injected HTTP status code.
func parseStatus(s string) (int, error) {
	st, err := strconv.Atoi(s)
	if err != nil || st < 100 || st > 599 {
		return 0, fmt.Errorf("bad status %q", s)
	}
	return st, nil
}
