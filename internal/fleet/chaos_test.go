package fleet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xdse/internal/eval"
	"xdse/internal/obs"
)

func TestParseChaosSpecGrammar(t *testing.T) {
	p, err := ParseChaosSpec("drop@3, delay@1 truncate@4,corrupt@2 status@5=404 storm@6-8=503 partition@0-1=w1 partition@9-9 delay=5ms seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.DropAt; len(got) != 1 || got[0] != 3 {
		t.Fatalf("DropAt = %v", got)
	}
	if got := p.DelayAt; len(got) != 1 || got[0] != 1 {
		t.Fatalf("DelayAt = %v", got)
	}
	if got := p.TruncateAt; len(got) != 1 || got[0] != 4 {
		t.Fatalf("TruncateAt = %v", got)
	}
	if got := p.CorruptAt; len(got) != 1 || got[0] != 2 {
		t.Fatalf("CorruptAt = %v", got)
	}
	if p.StatusAt[5] != 404 {
		t.Fatalf("StatusAt[5] = %d", p.StatusAt[5])
	}
	for o := 6; o <= 8; o++ {
		if p.StatusAt[o] != 503 {
			t.Fatalf("storm did not expand: StatusAt[%d] = %d", o, p.StatusAt[o])
		}
	}
	if len(p.Partitions) != 2 || p.Partitions[0] != (Partition{Worker: "w1", From: 0, To: 1}) || p.Partitions[1] != (Partition{From: 9, To: 9}) {
		t.Fatalf("Partitions = %+v", p.Partitions)
	}
	if p.Delay != 5*time.Millisecond || p.Seed != 42 {
		t.Fatalf("delay/seed = %v/%d", p.Delay, p.Seed)
	}

	// Empty and effect-free specs disable chaos entirely.
	for _, spec := range []string{"", "  ,  ", "seed=7", "delay=3ms,seed=1"} {
		p, err := ParseChaosSpec(spec)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		if p != nil {
			t.Fatalf("spec %q returned a policy; want nil (disabled)", spec)
		}
		if p.Enabled() {
			t.Fatalf("spec %q policy claims enabled", spec)
		}
		if p.NewInjector("", nil) != nil {
			t.Fatalf("spec %q minted an injector", spec)
		}
	}
}

func TestParseChaosSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"explode@3",        // unknown directive
		"drop@x",           // bad ordinal
		"drop@-1",          // negative ordinal
		"status@3",         // missing =CODE
		"status@3=99",      // status out of range
		"storm@5=503",      // missing range
		"storm@5-2=503",    // inverted range
		"partition@a-b=w1", // bad range bounds
		"delay=zzz",        // bad duration
		"delay=-1ms",       // non-positive duration
		"seed=abc",         // bad seed
	} {
		if _, err := ParseChaosSpec(spec); err == nil {
			t.Errorf("spec %q parsed; want error", spec)
		}
	}
}

// TestChaosInjected429IsShed: an injected 429 takes the same backpressure
// path as a real one.
func TestChaosInjected429IsShed(t *testing.T) {
	ci := (&ChaosPolicy{StatusAt: map[int]int{0: 429}}).NewInjector("", obs.NewRegistry())
	var shed *shedError
	if err := ci.admit(nil, ci.next(), "w"); !errors.As(err, &shed) {
		t.Fatalf("injected 429 = %v, want a *shedError", err)
	}
}

// TestChaosAdmitDeterministicClassification pins the ordinal addressing and
// the fault classification: drops/partitions/429/5xx are transient, other
// injected statuses permanent — and a replay over the same policy injects
// the identical faults at the identical ordinals.
func TestChaosAdmitDeterministicClassification(t *testing.T) {
	p := &ChaosPolicy{
		DropAt:     []int{1},
		StatusAt:   map[int]int{2: 503, 3: 404, 4: 429},
		Partitions: []Partition{{Worker: "w9", From: 5, To: 6}},
	}
	for replay := 0; replay < 2; replay++ {
		reg := obs.NewRegistry()
		ci := p.NewInjector("", reg)
		check := func(ord int, worker string, wantClass eval.ErrClass) {
			t.Helper()
			if got := ci.next(); got != ord {
				t.Fatalf("next() = %d, want %d", got, ord)
			}
			err := ci.admit(nil, ord, worker)
			if got := classify(err); got != wantClass {
				t.Fatalf("ordinal %d: classify(%v) = %v, want %v", ord, err, got, wantClass)
			}
		}
		check(0, "w1", eval.ClassNone)
		check(1, "w1", eval.ClassTransient) // drop
		check(2, "w1", eval.ClassTransient) // 503
		check(3, "w1", eval.ClassPermanent) // 404
		check(4, "w1", eval.ClassTransient) // 429, retried as backpressure
		check(5, "w1", eval.ClassNone)      // partition names w9, not w1
		check(6, "w9", eval.ClassTransient) // partition window hits w9
		check(7, "w9", eval.ClassNone)      // window over
		for kind, want := range map[string]int64{"drop": 1, "status": 3, "partition": 1} {
			if got := reg.Counter(`fleet_chaos_injected_total{kind="` + kind + `"}`).Value(); got != int64(want) {
				t.Errorf("replay %d: injected{%s} = %d, want %d", replay, kind, got, want)
			}
		}
	}
}

func TestChaosPartitionWildcard(t *testing.T) {
	for _, worker := range []string{"", "*"} {
		p := Partition{Worker: worker, From: 0, To: 2}
		if !p.matches("anyone", 1) {
			t.Fatalf("wildcard %q did not match", worker)
		}
		if p.matches("anyone", 3) {
			t.Fatalf("wildcard %q matched outside its window", worker)
		}
	}
}

// TestChaosMutateDeterministic: truncation halves the body; corruption flips
// exactly one byte at a position that is a pure function of (seed, ordinal,
// length) — the replayability contract for body faults.
func TestChaosMutateDeterministic(t *testing.T) {
	body := []byte(`{"records":["aaaaaaaaaaaaaaaa","bbbbbbbbbbbbbbbb"]}`)
	p := &ChaosPolicy{Seed: 7, TruncateAt: []int{0}, CorruptAt: []int{1}}

	ci := p.NewInjector("", nil)
	if got := ci.mutate(0, append([]byte(nil), body...)); len(got) != len(body)/2 || !bytes.Equal(got, body[:len(body)/2]) {
		t.Fatalf("truncate: got %d bytes, want first %d", len(got), len(body)/2)
	}
	first := ci.mutate(1, body)
	if bytes.Equal(first, body) {
		t.Fatal("corrupt left the body unchanged")
	}
	diff := 0
	for i := range body {
		if first[i] != body[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bytes, want exactly 1", diff)
	}
	// Same seed, same ordinal → same corruption; different seed → (for this
	// body) a different position, proving the seed participates.
	if again := p.NewInjector("", nil).mutate(1, body); !bytes.Equal(again, first) {
		t.Fatal("replay corrupted a different byte — chaos run not replayable")
	}
	other := &ChaosPolicy{Seed: 8, CorruptAt: []int{1}}
	if got := other.NewInjector("", nil).mutate(1, body); bytes.Equal(got, first) {
		t.Fatal("seed change corrupted the identical byte — seed not keyed in")
	}
	// Untargeted ordinals and empty bodies pass through untouched.
	if got := ci.mutate(2, body); !bytes.Equal(got, body) {
		t.Fatal("mutate touched an untargeted ordinal")
	}
	if got := ci.mutate(1, nil); len(got) != 0 {
		t.Fatal("mutate invented bytes for an empty body")
	}
}

func TestChaosNilInjectorNoOps(t *testing.T) {
	var ci *ChaosInjector
	if err := ci.admit(nil, 0, "w"); err != nil {
		t.Fatal(err)
	}
	if got := ci.mutate(0, []byte("x")); string(got) != "x" {
		t.Fatalf("mutate = %q", got)
	}
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	if got := ci.Wrap(h); got == nil {
		t.Fatal("Wrap(nil injector) returned nil handler")
	}
}

// TestChaosWrapMiddleware drives the worker-side injection point through a
// real HTTP server: each request consumes one ordinal and suffers exactly the
// scripted fate on the wire.
func TestChaosWrapMiddleware(t *testing.T) {
	const payload = "0123456789abcdef0123456789abcdef"
	p := &ChaosPolicy{
		Seed:       3,
		StatusAt:   map[int]int{0: 503},
		TruncateAt: []int{1},
		CorruptAt:  []int{2},
		DropAt:     []int{4},
		Partitions: []Partition{{Worker: "me", From: 5, To: 5}},
	}
	reg := obs.NewRegistry()
	ci := p.NewInjector("me", reg)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Test", "yes")
		io.WriteString(w, payload)
	})
	ts := httptest.NewServer(ci.Wrap(inner))
	defer ts.Close()

	// One fresh connection per request: on a reused keep-alive connection the
	// transport silently retries an aborted GET, consuming a second ordinal.
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	get := func() (*http.Response, string, error) {
		resp, err := client.Get(ts.URL)
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp, string(b), err
	}

	// Ordinal 0: injected 503.
	resp, _, err := get()
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("ordinal 0: resp %v err %v, want 503", resp, err)
	}
	// Ordinal 1: truncated to the first half.
	if _, body, err := get(); err != nil || body != payload[:len(payload)/2] {
		t.Fatalf("ordinal 1: body %q err %v, want first half", body, err)
	}
	// Ordinal 2: one byte corrupted, headers preserved.
	resp, body, err := get()
	if err != nil || len(body) != len(payload) || body == payload {
		t.Fatalf("ordinal 2: body %q err %v, want corrupted full-length body", body, err)
	}
	if resp.Header.Get("X-Test") != "yes" {
		t.Fatal("ordinal 2: handler headers lost through the recorder")
	}
	// Ordinal 3: untargeted, passes through clean.
	if _, body, err := get(); err != nil || body != payload {
		t.Fatalf("ordinal 3: body %q err %v, want clean passthrough", body, err)
	}
	// Ordinal 4: dropped connection — the client sees a transport error.
	if _, _, err := get(); err == nil {
		t.Fatal("ordinal 4: drop did not surface as a transport error")
	}
	// Ordinal 5: a partition naming the worker's own identity behaves like a
	// drop on the worker side.
	if _, _, err := get(); err == nil {
		t.Fatal("ordinal 5: self-partition did not abort the connection")
	}
	for kind, want := range map[string]int64{"status": 1, "truncate": 1, "corrupt": 1, "drop": 1, "partition": 1} {
		if got := reg.Counter(`fleet_chaos_injected_total{kind="` + kind + `"}`).Value(); got != want {
			t.Errorf("injected{%s} = %d, want %d", kind, got, want)
		}
	}
}

// TestChaosAdmitDelayCancellable: an injected delay respects the caller's
// done channel instead of sleeping through a cancelled dispatch.
func TestChaosAdmitDelayCancellable(t *testing.T) {
	p := &ChaosPolicy{DelayAt: []int{0}, Delay: time.Minute}
	ci := p.NewInjector("", nil)
	done := make(chan struct{})
	close(done)
	start := time.Now()
	if err := ci.admit(done, 0, "w"); err == nil {
		t.Fatal("cancelled delay returned nil")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("admit slept through cancellation")
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := map[string]time.Duration{
		"5":                             5 * time.Second,
		" 2 ":                           2 * time.Second,
		"0":                             0,
		"-3":                            0,
		"":                              0,
		"abc":                           0,
		"Wed, 21 Oct 2015 07:28:00 GMT": 0, // HTTP-date form deliberately ignored
	}
	for in, want := range cases {
		if got := parseRetryAfter(in); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestRetryDelayHonorsRetryAfterCapped: the worker's hint overrides the
// deterministic schedule but can never exceed the retry policy's BackoffCap.
func TestRetryDelayHonorsRetryAfterCapped(t *testing.T) {
	c := &Coordinator{retry: eval.RetryPolicy{Backoff: 4 * time.Millisecond, BackoffCap: 32 * time.Millisecond}}
	base := errors.New("worker w: status 429")
	if got := c.retryDelay(1, base); got != 4*time.Millisecond {
		t.Fatalf("no hint: delay = %v, want the schedule's 4ms", got)
	}
	hinted := &retryAfterError{err: base, hint: 10 * time.Millisecond}
	if got := c.retryDelay(1, hinted); got != 10*time.Millisecond {
		t.Fatalf("hint below cap: delay = %v, want 10ms", got)
	}
	huge := &retryAfterError{err: base, hint: time.Hour}
	if got := c.retryDelay(1, huge); got != 32*time.Millisecond {
		t.Fatalf("hint above cap: delay = %v, want the 32ms cap", got)
	}
	// The hint must survive fmt-style wrapping, as postEval produces it.
	wrapped := &retryAfterError{err: base, hint: 8 * time.Millisecond}
	var ra *retryAfterError
	if !errors.As(wrapped, &ra) || ra.hint != 8*time.Millisecond {
		t.Fatal("retryAfterError not recoverable via errors.As")
	}
}
