package arch

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Malformed points must surface as errors, not index panics: the resume path
// feeds journaled keys straight into Decode.
func TestCheckPointMalformed(t *testing.T) {
	s := EdgeSpace()

	good := s.Initial()
	if err := s.CheckPoint(good); err != nil {
		t.Fatalf("CheckPoint(Initial) = %v, want nil", err)
	}

	cases := []struct {
		name string
		pt   Point
		want string
	}{
		{"short arity", good[:len(good)-1], "arity"},
		{"long arity", append(good.Clone(), 0), "arity"},
		{"negative index", func() Point { p := good.Clone(); p[PPEs] = -1; return p }(), "out of range"},
		{"overflow index", func() Point { p := good.Clone(); p[PL1] = 99; return p }(), "out of range"},
		{"nil point", nil, "arity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := s.CheckPoint(tc.pt)
			if err == nil {
				t.Fatalf("CheckPoint(%v) = nil, want error containing %q", tc.pt, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckPoint(%v) = %q, want substring %q", tc.pt, err, tc.want)
			}
			if _, derr := s.Decode(tc.pt); derr == nil {
				t.Errorf("Decode(%v) = nil error, want the CheckPoint failure", tc.pt)
			}
		})
	}
}

func TestMustDecodePanicsOnMalformed(t *testing.T) {
	s := EdgeSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("MustDecode on a malformed point did not panic")
		}
	}()
	s.MustDecode(Point{1})
}

func TestParseKeyRoundTrip(t *testing.T) {
	s := EdgeSpace()
	pts := []Point{
		s.Initial(),
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0},
	}
	// Keep the hand-written point within the space arity.
	pts[1] = pts[1][:len(s.Params)]
	for _, pt := range pts {
		got, err := ParseKey(pt.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", pt.Key(), err)
		}
		if !got.Equal(pt) {
			t.Errorf("ParseKey(Key(%v)) = %v", pt, got)
		}
	}
}

// keyFmt is the fmt-based Point.Key that the strconv form replaced, kept as
// its reference: journals and caches written by either must agree.
func keyFmt(pt Point) string {
	var b strings.Builder
	for i, v := range pt {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

func TestKeyMatchesFmtReference(t *testing.T) {
	s := EdgeSpace()
	rng := rand.New(rand.NewSource(29))
	pts := []Point{
		nil, {}, {0}, {-1}, {math.MaxInt64, math.MinInt64},
		make(Point, 40), // longer than Key's stack buffer
	}
	for i := range pts[len(pts)-1] {
		pts[len(pts)-1][i] = math.MaxInt32 - i
	}
	for range 2000 {
		pts = append(pts, s.Random(rng))
	}
	for range 500 {
		pt := make(Point, rng.Intn(20))
		for i := range pt {
			pt[i] = rng.Intn(1<<20) - 1<<19
		}
		pts = append(pts, pt)
	}
	for _, pt := range pts {
		key := pt.Key()
		if want := keyFmt(pt); key != want {
			t.Fatalf("Key(%v) = %q, want %q", pt, key, want)
		}
		if len(pt) == 0 {
			continue // ParseKey rejects the empty key
		}
		got, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if !got.Equal(pt) {
			t.Fatalf("ParseKey(Key(%v)) = %v", pt, got)
		}
	}
}

func TestParseKeyMalformed(t *testing.T) {
	for _, key := range []string{"", "1,2,x", "1,,2", "1.5", "1, 2"} {
		if pt, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q) = %v, want error", key, pt)
		}
	}
}
