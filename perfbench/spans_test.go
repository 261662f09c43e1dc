package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children are merged: [10,50] covers 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		// A child running past its parent is clipped: [90,100] covers 10.
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 45},
		// A second root with no children keeps its whole duration.
		{ID: 6, Name: "root", Start: 200, End: 207},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 50 + 7,
		"a":    20 + (30 - 20),
		"b":    30,
		"c":    20,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.begin("root", 0), func() { ran = true })
	if !ran {
		t.Fatal("a nil tracer must still run the call")
	}
}

func TestTracerTotals(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	tr.do("leaf", root, func() { time.Sleep(time.Millisecond) })
	tr.do("leaf", 0, func() {})
	tr.end(root)
	if n := len(tr.durations("leaf", anyParent)); n != 2 {
		t.Fatalf("got %d leaf spans, want 2", n)
	}
	if under := tr.total("leaf", root); under < time.Millisecond {
		t.Errorf("leaf under root = %v, want at least 1ms", under)
	}
	if tr.total("leaf", root) > tr.total("root", anyParent) {
		t.Error("a child outlasted its parent")
	}
}
