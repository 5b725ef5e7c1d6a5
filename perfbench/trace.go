package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// Event is the index of the view change the span serves, -1 when it
	// serves none; every span of one view change shares it.
	Event   int   `json:"event"`
	StartUs int64 `json:"start_us"`
	EndUs   int64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	event  int
	start  time.Time
}

// start opens a span. On a nil tracer it returns a zero openSpan whose
// id, 0, is also the parent ID of a root span.
func (t *tracer) start(name string, parent int64, event int) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.next.Add(1), parent: parent, name: name, event: event, start: time.Now()}
}

// end records the span.
func (s openSpan) end() {
	if s.t != nil {
		s.t.add(s.id, s.parent, s.name, s.event, s.start, time.Now())
	}
}

// recordAt records a span whose start and end were observed elsewhere.
func (t *tracer) recordAt(name string, parent int64, event int, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(t.next.Add(1), parent, name, event, start, end)
}

func (t *tracer) add(id, parent int64, name string, event int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Event: event,
		StartUs: start.Sub(t.t0).Microseconds(), EndUs: end.Sub(t.t0).Microseconds(),
	})
}

// len returns the number of spans recorded.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
