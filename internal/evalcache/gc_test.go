package evalcache

import (
	"testing"
	"time"
)

// TestGCRetiresByWriteAge: GC retires records by the stamp of the Put that
// wrote them. Lookups do not move the stamp, so records read after they
// were written are retired with the rest of their age.
func TestGCRetiresByWriteAge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic clock: records 0, 1 and 3 written at t=0, 2 and 4 at
	// t=1000; every record is read at t=1000.
	clock := int64(0)
	s.now = func() int64 { return clock }
	for _, i := range []int{0, 1, 3} {
		s.Put(testKey(i), testEntry(i))
	}
	clock = 1000
	for _, i := range []int{2, 4} {
		s.Put(testKey(i), testEntry(i))
	}
	for i := 0; i < 5; i++ {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Fatalf("Get(%d) missed", i)
		}
	}
	// At t=1500, a 600s horizon retires everything written at t=0.
	clock = 1500
	retired, err := s.GC(600 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if retired != 3 {
		t.Fatalf("retired %d records, want 3", retired)
	}
	if s.Len() != 2 {
		t.Fatalf("store has %d records after GC, want 2", s.Len())
	}
	if got := s.Metrics().Counter("evalcache_gc_retired_total").Value(); got != 3 {
		t.Fatalf("evalcache_gc_retired_total = %d, want 3", got)
	}
	for _, i := range []int{0, 1, 3} {
		if _, ok := s.Get(testKey(i)); ok {
			t.Fatalf("record %d survived GC", i)
		}
	}
	// The retirement must be durable: a fresh store sees only the kept
	// records, with their write stamps intact.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened store has %d records, want 2", s2.Len())
	}
	for _, i := range []int{2, 4} {
		if _, ok := s2.Get(testKey(i)); !ok {
			t.Fatalf("kept record %d missing after reopen", i)
		}
		if at := s2.idx[testKey(i)].at; at != 1000 {
			t.Errorf("kept record %d reopened with stamp %d, want its write time 1000", i, at)
		}
	}
}

func TestGCRejectsNonPositiveAge(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GC(0); err == nil {
		t.Fatal("GC(0) accepted")
	}
	if _, err := s.GC(-time.Second); err == nil {
		t.Fatal("GC(<0) accepted")
	}
}

func TestGCKeepsEverythingWithinAge(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	clock := int64(100)
	s.now = func() int64 { return clock }
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), testEntry(i))
	}
	clock = 150
	retired, err := s.GC(100 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if retired != 0 || s.Len() != 3 {
		t.Fatalf("GC retired %d (len %d), want 0 (3)", retired, s.Len())
	}
}
