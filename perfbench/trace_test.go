package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "server.roundtrip", Start: 0, End: 100, Parent: -1},
		// Two overlapping children: [10, 40) and [30, 60) cover 50.
		{Name: "server.handler", Start: 10, End: 40, Parent: 0},
		{Name: "server.handler", Start: 30, End: 60, Parent: 0},
		// A child inside the first child: its time leaves that child's
		// self time, never the root's a second time.
		{Name: "sequential.solve", Start: 15, End: 25, Parent: 1},
		// A child running past its parent's end counts only up to it.
		{Name: "wal.append", Start: 90, End: 120, Parent: 0},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10, 30 - 10, 30, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["server"] != 40+20+30 || layers["sequential"] != 10 || layers["wal"] != 30 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	if id := tr.do("api.decode", -1, 0, func() {}); id != -1 || len(tr.spans) != 0 {
		t.Fatalf("disabled tracer recorded span %d (%d spans)", id, len(tr.spans))
	}
}
