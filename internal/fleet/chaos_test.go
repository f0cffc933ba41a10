package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xdse/internal/eval"
	"xdse/internal/obs"
)

func TestParseChaosSpecGrammar(t *testing.T) {
	p, err := ParseChaosSpec("drop@3, delay@1 truncate@4,corrupt@2 status@5=404 storm@6-8=503 drop@10-12 delay=5ms seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.DropAt; !slices.Equal(got, []int{3, 10, 11, 12}) {
		t.Fatalf("DropAt = %v, want [3 10 11 12] (drop@N-M expands its range)", got)
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
		if p.NewInjector(nil) != nil {
			t.Fatalf("spec %q minted an injector", spec)
		}
	}
}

// TestParseChaosSpecErrors: a malformed directive fails the whole spec, and
// the error names that directive.
func TestParseChaosSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"explode@3",     // unknown directive
		"partition@2-4", // a worker's partition is drop@N-M
		"drop@x",        // bad ordinal
		"drop@-1",       // negative ordinal
		"drop@a-b",      // bad range bounds
		"drop@4-2",      // inverted range
		"status@3",      // missing =CODE
		"status@3=99",   // status out of range
		"storm@5=503",   // missing range
		"storm@5-2=503", // inverted range
		"delay=zzz",     // bad duration
		"delay=-1ms",    // non-positive duration
		"seed=abc",      // bad seed
	} {
		_, err := ParseChaosSpec("drop@1," + bad + ",seed=7")
		if err == nil {
			t.Errorf("spec with %q parsed; want error", bad)
		} else if !strings.Contains(err.Error(), strconv.Quote(bad)) {
			t.Errorf("error %q does not name the directive %q", err, bad)
		}
	}
}

// TestChaosMutateDeterministic: truncation halves the body; corruption flips
// exactly one byte at a position that is a pure function of (seed, ordinal,
// length) — the replayability contract for body faults.
func TestChaosMutateDeterministic(t *testing.T) {
	body := []byte(`{"records":["aaaaaaaaaaaaaaaa","bbbbbbbbbbbbbbbb"]}`)
	p := &ChaosPolicy{Seed: 7, TruncateAt: []int{0}, CorruptAt: []int{1}}

	ci := p.NewInjector(nil)
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
	if again := p.NewInjector(nil).mutate(1, body); !bytes.Equal(again, first) {
		t.Fatal("replay corrupted a different byte — chaos run not replayable")
	}
	other := &ChaosPolicy{Seed: 8, CorruptAt: []int{1}}
	if got := other.NewInjector(nil).mutate(1, body); bytes.Equal(got, first) {
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
	var calls int
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { calls++ })
	ci.Wrap(h).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/eval", nil))
	if calls != 1 {
		t.Fatalf("Wrap(nil injector) called the handler %d times, want 1", calls)
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
		DropAt:     []int{4, 5},
	}
	reg := obs.NewRegistry()
	ci := p.NewInjector(reg)
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
	// Ordinals 4 and 5: dropped connections — the client sees transport
	// errors.
	for ord := 4; ord <= 5; ord++ {
		if _, _, err := get(); err == nil {
			t.Fatalf("ordinal %d: drop did not surface as a transport error", ord)
		}
	}
	for kind, want := range map[string]int64{"status": 1, "truncate": 1, "corrupt": 1, "drop": 2} {
		if got := reg.Counter(`fleet_chaos_injected_total{kind="` + kind + `"}`).Value(); got != want {
			t.Errorf("injected{%s} = %d, want %d", kind, got, want)
		}
	}
}

// TestChaosWrapDelayCancellable: an injected delay ends when the client
// gives up instead of holding the handler for the full delay, and the
// delayed request never reaches the wrapped handler.
func TestChaosWrapDelayCancellable(t *testing.T) {
	reg := obs.NewRegistry()
	ci := (&ChaosPolicy{DelayAt: []int{0}, Delay: time.Minute}).NewInjector(reg)
	var reached atomic.Bool
	h := ci.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { reached.Store(true) }))
	returned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the request is inside the injected delay.
		for i := 0; i < 10000 && reg.Counter(`fleet_chaos_injected_total{kind="delay"}`).Value() == 0; i++ {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := ts.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("a cancelled request got a response")
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("the injected delay held the handler after the client cancelled")
	}
	if reached.Load() {
		t.Fatal("the cancelled request reached the wrapped handler")
	}
}

// TestChaosAdmitDeterministicClassification pins the ordinal addressing and
// what each failed dispatch is, with the faults injected where a chaos run
// injects them: as the worker's /eval surface admits each request. A
// dropped connection, a 503 and a torn body are transient, a 429 is a shed
// and a 404 is permanent. Replaying the script over fresh injectors injects
// the identical faults at the identical ordinals.
func TestChaosAdmitDeterministicClassification(t *testing.T) {
	p := &ChaosPolicy{
		DropAt:     []int{1},
		StatusAt:   map[int]int{2: 503, 3: 404, 4: 429},
		TruncateAt: []int{5},
	}
	type outcome struct {
		failed bool
		kind   faultKind
	}
	want := []outcome{
		{false, 0},             // clean
		{true, faultTransient}, // drop
		{true, faultTransient}, // 503
		{true, faultPermanent}, // 404
		{true, faultShed},      // 429
		{true, faultTransient}, // torn body
		{false, 0},             // clean again
	}
	for replay := 0; replay < 2; replay++ {
		h := p.NewInjector(nil).Wrap(http.HandlerFunc(okEval))
		ts := fakeWorker(t, h.ServeHTTP)
		c, err := New([]string{ts.Listener.Addr().String()}, hedgeTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		for ord, w := range want {
			_, derr := c.dispatch(context.Background(), testBase, shard{key: "m|p", points: []string{"p"}}, c.pool.workers[0])
			var got outcome
			if derr != nil {
				got = outcome{true, derr.kind}
			}
			if got != w {
				t.Errorf("replay %d, ordinal %d: got %+v (%v), want %+v", replay, ord, got, derr, w)
			}
		}
		c.Close()
	}
}

// TestChaosInjected429IsShed: an injected 429 takes the same backpressure
// path as a real one — a shed, not a worker fault — and a real 429's
// Retry-After hint rides along on it.
func TestChaosInjected429IsShed(t *testing.T) {
	dispatchOnce := func(h http.HandlerFunc) *dispatchError {
		t.Helper()
		ts := fakeWorker(t, h)
		c, err := New([]string{ts.Listener.Addr().String()}, hedgeTestOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, derr := c.dispatch(context.Background(), testBase, shard{key: "m|p", points: []string{"p"}}, c.pool.workers[0])
		return derr
	}

	injected := (&ChaosPolicy{StatusAt: map[int]int{0: 429}}).NewInjector(nil).Wrap(http.HandlerFunc(okEval))
	if derr := dispatchOnce(injected.ServeHTTP); derr == nil || derr.kind != faultShed {
		t.Fatalf("injected 429 = %+v, want a shed", derr)
	}
	hinted := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, "saturated", http.StatusTooManyRequests)
	}
	if derr := dispatchOnce(hinted); derr == nil || derr.kind != faultShed || derr.hint != 2*time.Second {
		t.Fatalf("429 with Retry-After 2 = %+v, want a shed with a 2s hint", derr)
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

// TestRetryDelayHonorsRetryAfterCapped: the worker's hint replaces the
// deterministic schedule's delay, longer or shorter, but can never exceed
// the retry policy's BackoffCap.
func TestRetryDelayHonorsRetryAfterCapped(t *testing.T) {
	c := &Coordinator{retry: eval.RetryPolicy{Backoff: 4 * time.Millisecond, BackoffCap: 32 * time.Millisecond}}
	shed := failed(faultShed, "worker w: status 429")
	if got := c.retryDelay(1, shed); got != 4*time.Millisecond {
		t.Fatalf("no hint: delay = %v, want the schedule's 4ms", got)
	}
	shed.hint = 10 * time.Millisecond
	if got := c.retryDelay(1, shed); got != 10*time.Millisecond {
		t.Fatalf("hint below cap: delay = %v, want 10ms", got)
	}
	if got := c.retryDelay(3, shed); got != 10*time.Millisecond {
		t.Fatalf("hint below the schedule's 16ms: delay = %v, want 10ms", got)
	}
	shed.hint = time.Hour
	if got := c.retryDelay(1, shed); got != 32*time.Millisecond {
		t.Fatalf("hint above cap: delay = %v, want the 32ms cap", got)
	}
}
