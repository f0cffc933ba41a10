package checkpoint

import (
	"strings"
	"testing"
)

// TestFrameLineRoundTrip: every payload survives the CRC'd line discipline —
// including empty, whitespace-bearing, and non-ASCII payloads — and the wire
// form is exactly "crc8hex space payload newline". The expected lines are
// the bytes earlier builds wrote, which UnframeLine must keep reading back.
func TestFrameLineRoundTrip(t *testing.T) {
	for _, tc := range []struct{ payload, line string }{
		{"", "00000000 \n"},
		{"{}", "a3a6bf43 {}\n"},
		{`{"op":"done","points":["p1","p2"]}`, "a722bdab {\"op\":\"done\",\"points\":[\"p1\",\"p2\"]}\n"},
		{"payload with spaces", "17df3c42 payload with spaces\n"},
		{"unicodé ✓ bytes", "fbbdeac4 unicodé ✓ bytes\n"},
	} {
		payload := tc.payload
		line := FrameLine([]byte(payload))
		if string(line) != tc.line {
			t.Fatalf("FrameLine(%q) = %q, want %q", payload, line, tc.line)
		}
		got, err := UnframeLine(line[:len(line)-1])
		if err != nil {
			t.Fatalf("UnframeLine(FrameLine(%q)): %v", payload, err)
		}
		if string(got) != payload {
			t.Fatalf("round trip of %q returned %q", payload, got)
		}
	}
}

// TestOpenCloseFrameAppends: frames built in place one after another in one
// buffer are the FrameLine lines of their payloads, back to back.
func TestOpenCloseFrameAppends(t *testing.T) {
	payloads := []string{"first payload", "", "third"}
	var buf []byte
	var want string
	for _, p := range payloads {
		var start int
		buf, start = OpenFrame(buf)
		buf = CloseFrame(append(buf, p...), start)
		want += string(FrameLine([]byte(p)))
	}
	if string(buf) != want {
		t.Fatalf("frames appended in place:\n got  %q\n want %q", buf, want)
	}
}

func TestUnframeLineRejects(t *testing.T) {
	good := string(FrameLine([]byte(`{"ok":true}`)))
	good = strings.TrimSuffix(good, "\n")
	cases := map[string]string{
		"too short":        "abc",
		"no space":         good[:8] + "_" + good[9:],
		"bad hex":          "zzzzzzzz " + good[9:],
		"crc mismatch":     good[:9] + `{"ok":false}`,
		"payload bit flip": good[:len(good)-1] + "x",
	}
	for name, text := range cases {
		if _, err := UnframeLine([]byte(text)); err == nil {
			t.Errorf("%s: UnframeLine(%q) accepted", name, text)
		}
	}
}

// TestUnframeLineInPlace: UnframeLine checks a line where it lies and
// returns its payload as a sub-slice of the line, copying nothing.
func TestUnframeLineInPlace(t *testing.T) {
	framed := FrameLine([]byte("payload with spaces"))
	line := framed[:len(framed)-1]
	payload, err := UnframeLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "payload with spaces" || &payload[0] != &line[9] {
		t.Fatalf("UnframeLine returned %q, not the line's own payload bytes", payload)
	}
}
