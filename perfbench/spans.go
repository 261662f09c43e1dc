package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at exit. It is
// safe for concurrent use (the served clients record from two goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it. A nil tracer (an
// untraced run) records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// anyParent matches spans under any parent.
const anyParent = -1

// durations returns the wall durations of every span with this name and
// parent (or any parent).
func (t *tracer) durations(name string, parent int) []time.Duration {
	var out []time.Duration
	for _, s := range t.snapshot() {
		if s.Name == name && (parent == anyParent || s.Parent == parent) {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the durations of every span with this name and parent.
func (t *tracer) total(name string, parent int) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name, parent) {
		sum += d
	}
	return sum
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
// Overlapping children are merged first, so concurrent children are not
// subtracted twice, and children are clipped to their parent's interval.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return time.Duration(sum)
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes lists each span name's call count and summed self time.
func (r *run) printSelfTimes(spans []span) {
	self := selfTimes(spans)
	calls := map[string]int{}
	for _, s := range spans {
		calls[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	r.printf("self time by span:")
	for _, n := range names {
		r.printf("  %-32s %7d calls %12.3f ms", n, calls[n], float64(self[n])/float64(time.Millisecond))
	}
}
