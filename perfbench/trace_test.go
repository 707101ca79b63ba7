package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "poll", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "poll", Start: 20, End: 40},    // overlaps ID 2
		{ID: 4, Parent: 1, Name: "result", Start: 90, End: 120}, // clipped to 100
		{ID: 5, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"job": 100 - 30 - 10, "poll": 20 + (20 - 10), "result": 30, "inner": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.reserve("x", "run", 0)
	tr.finish(id, time.Now(), time.Now())
	if id != 0 {
		t.Fatalf("nil tracer returned span ID %d", id)
	}
	tr = newTracer()
	parent := tr.reserve("parent", "run", 0)
	t0 := time.Now()
	child := tr.record("child", "run", parent, t0, t0.Add(time.Millisecond))
	tr.finish(parent, t0, t0.Add(2*time.Millisecond))
	if tr.spans[child-1].Parent != parent || tr.spans[parent-1].End-tr.spans[parent-1].Start != int64(2*time.Millisecond) {
		t.Fatalf("spans = %+v", tr.spans)
	}
}
