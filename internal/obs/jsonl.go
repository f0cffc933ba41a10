package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
)

// JSONLOptions tunes a JSONLSink's durability/throughput trade-off.
type JSONLOptions struct {
	// SyncEvery is the fsync cadence in emitted events: the file is
	// flushed and fsync'd after every SyncEvery-th event, bounding how
	// many trace lines a hard kill can lose. 0 selects the default (64);
	// negative syncs only on Flush/Close.
	SyncEvery int
}

func (o JSONLOptions) syncEvery() int {
	if o.SyncEvery == 0 {
		return 64
	}
	return o.SyncEvery
}

// JSONLSink persists events as one JSON object per line, with the same
// append/flush/fsync discipline as the checkpoint journal: buffered appends,
// periodic fsync, and a torn trailing line (the signature of a hard kill)
// tolerated by ReadTrace rather than poisoning the file. It assigns each
// event a monotonically increasing Seq at write time and is safe for
// concurrent Emit from parallel campaign runs.
type JSONLSink struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	opts     JSONLOptions
	seq      int
	unsynced int
	closed   bool
	err      error // first write error; reported by Close
}

// NewJSONLSink creates (truncating) the trace file at path and returns a sink
// writing to it. A resumed campaign re-emits its whole event stream, so it
// starts the file afresh too.
func NewJSONLSink(path string, opts JSONLOptions) (*JSONLSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &JSONLSink{f: f, w: bufio.NewWriter(f), opts: opts}, nil
}

// Emit implements Sink: it stamps the sink's next sequence number on the
// event and appends its JSON line. Write errors are sticky and surface on
// Close — emission is on optimizer hot paths and must never abort a run.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	s.seq++
	ev.Seq = s.seq
	data, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		s.err = err
		return
	}
	s.unsynced++
	if n := s.opts.syncEvery(); n > 0 && s.unsynced >= n {
		s.err = s.flushLocked()
	}
}

// flushLocked drains the buffer and fsyncs. Caller holds s.mu.
func (s *JSONLSink) flushLocked() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.unsynced = 0
	return nil
}

// Flush forces buffered events to stable storage (the interrupt path, where
// os.Exit skips deferred Closes).
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	if err := s.flushLocked(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Close flushes, fsyncs, and closes the trace file, returning the first
// error encountered over the sink's lifetime. Idempotent.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.f.Sync(); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// ReadTrace loads every intact event from a trace JSONL file. A line that is
// truncated or fails to parse — and everything after it — is dropped via
// warnf (nil discards warnings): the expected aftermath of a hard kill,
// never a fatal error. Only I/O failures are returned as errors.
func ReadTrace(path string, warnf func(format string, args ...any)) ([]Event, error) {
	events, _, err := ReadTraceChecked(path, warnf)
	return events, err
}

// ReadTraceChecked is ReadTrace additionally reporting whether lines were
// dropped — a torn or unparseable tail — so callers that must not silently
// present a partial trace (xdse report) can fail loudly while tolerant
// callers keep the intact prefix.
func ReadTraceChecked(path string, warnf func(format string, args ...any)) (events []Event, torn bool, err error) {
	warn := func(format string, args ...any) {
		if warnf != nil {
			warnf(format, args...)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	rest := string(data)
	lineNo := 0
	for rest != "" {
		lineNo++
		text, tail, complete := strings.Cut(rest, "\n")
		if !complete {
			warn("obs: %s line %d: torn write (no newline), dropping", path, lineNo)
			torn = true
			break
		}
		rest = tail
		var ev Event
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			warn("obs: %s line %d: %v — dropping this and later lines", path, lineNo, err)
			torn = true
			break
		}
		events = append(events, ev)
	}
	if events == nil && lineNo == 0 {
		return nil, false, fmt.Errorf("obs: %s: empty trace", path)
	}
	return events, torn, nil
}
