package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call into a layer's
// public function, an op of a workload, or one cohd request.
type span struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
	// Parent is the ID of the span that caused this one (0 = a root).
	Parent int `json:"parent,omitempty"`
	// Op identifies the workload op, request or repetition the span
	// belongs to; the spans of one op share it.
	Op    int   `json:"op"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Work is the number of accesses (or calls) the span covered, the
	// denominator of its per-access metric.
	Work int64 `json:"work,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so timed runs pass nil and pay one pointer test per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span now and returns its ID.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	return t.record(name, parent, op, time.Now(), time.Time{}, 0)
}

// finish closes span id now, recording the work it covered.
func (t *tracer) finish(id int, work int64) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Work = work
	t.mu.Unlock()
}

// record adds a span whose bounds were measured elsewhere (a request's
// due time, a server-side timestamp). A zero end leaves the span open.
func (t *tracer) record(name string, parent, op int, start, end time.Time, work int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := span{Name: name, ID: id, Parent: parent, Op: op, Start: start.Sub(t.t0).Nanoseconds(), Work: work}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return id
}

// self returns each span's self time: its duration minus the part of its
// interval that its child spans cover.
func (t *tracer) self() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		lo, hi := int64(0), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += max(hi-lo, 0)
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += max(hi-lo, 0)
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// perWork returns, over every span called name, the median of self time
// divided by the span's work, in nanoseconds.
func (t *tracer) perWork(name string) float64 {
	self := t.self()
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name && s.Work > 0 {
			xs = append(xs, float64(self[s.ID])/float64(s.Work))
		}
	}
	return median(xs)
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
