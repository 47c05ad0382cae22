package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the traced replay made into a layer. Parent is
// the index of the enclosing span (-1 for a root); Req is the id of the
// generated request the call served (-1 when it served none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps every span in memory until the run ends. A disabled
// tracer records nothing, which is what the overhead comparison runs
// against. Spans may be opened from server goroutines (the handler
// wrapper of the loopback pass), so the slice is guarded.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id for end (-1 when disabled).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		now := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id].End = now
		t.mu.Unlock()
	}
}

// do runs fn inside a span and returns the span's id.
func (t *tracer) do(name string, parent, req int, fn func()) int {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
	return id
}

// dur returns a closed span's duration.
func (t *tracer) dur(id int) time.Duration {
	if id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent calls under one parent); their union is subtracted,
// clipped to the parent's interval, so no time is removed twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := int64(0)
		cur := iv{-1, -1}
		for _, v := range ivs {
			if v.lo > cur.hi {
				covered += cur.hi - cur.lo
				cur = v
			} else if v.hi > cur.hi {
				cur.hi = v.hi
			}
		}
		covered += cur.hi - cur.lo
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSelf sums self time per layer, the part of a span name before
// its first dot.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += self[i]
	}
	return out
}

// sums returns the total duration and the count of the spans with each
// name.
func (t *tracer) sums() (map[string]time.Duration, map[string]int) {
	total, count := map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		total[s.Name] += time.Duration(s.End - s.Start)
		count[s.Name]++
	}
	return total, count
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
