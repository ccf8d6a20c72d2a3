package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. An aggregate span folds
// Calls calls made inside its parent into one interval as long as their
// summed time, starting where the parent starts.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced run began
	End    float64 `json:"end_s"`
	Calls  int64   `json:"calls,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the traced run's spans in memory. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) aggregate(name string, parent int, d time.Duration, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: start, End: start + d.Seconds(), Calls: calls})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, end float64
	for i, sp := range s {
		if i == 0 || sp.Start > end {
			total += sp.dur()
			end = sp.End
		} else if sp.End > end {
			total += sp.End - end
			end = sp.End
		}
	}
	return total
}
