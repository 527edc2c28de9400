package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// wrappers. Parent is the id of the enclosing span (-1 at top level) and
// Op groups the spans of one top-level operation (a quote, a tick, an
// episode).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes call the same wrappers at no cost beyond a
// nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id.
func (t *tracer) open(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// closeAs ends span id and names it, for calls classified by their
// outcome.
func (t *tracer) closeAs(id int, name string) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Name = name
	t.mu.Unlock()
}

// add records a span whose bounds were taken by the caller.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

// layerStats summarizes every span with one name.
type layerStats struct {
	n    int
	busy time.Duration // sum of span durations
	self time.Duration // busy minus the time covered by direct children
	durs sample
}

// perSecond is calls per busy second: the inverse of the mean call time.
func (s layerStats) perSecond() float64 {
	if s.n == 0 || s.self <= 0 {
		return 0
	}
	return float64(s.n) / s.self.Seconds()
}

// stats aggregates the spans named name.
func (t *tracer) stats(name string) layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	var st layerStats
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := time.Duration(s.End - s.Start)
		st.n++
		st.busy += d
		st.self += d - child[s.ID]
		st.durs = append(st.durs, d)
	}
	return st
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
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
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
