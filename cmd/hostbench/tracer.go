package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Its layer is the part
// of Name before the first dot. Count is 1 for a single call; a
// boundary crossed once per simulated event is recorded as one
// aggregate span whose duration is the sum over Count calls, so that
// memory stays bounded. Aggregates under one parent are laid out back
// to back from the parent's start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
	Count  int64  `json:"count"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use. A nil *tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	cursor map[int]int64 // next free offset for aggregates, per parent
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cursor: map[int]int64{}} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Count: 1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// aggregate records count calls totalling d under parent.
func (t *tracer) aggregate(name string, parent int, d time.Duration, count int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.cursor[parent]
	if parent >= 0 && start == 0 {
		start = t.spans[parent].Start
	}
	t.cursor[parent] = start + d.Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + d.Nanoseconds(), Parent: parent, Count: count})
	return len(t.spans) - 1
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover (children running in parallel, like
// fleet jobs, cover it once): the time spent in that layer itself, in
// seconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, end := int64(0), int64(math.MinInt64)
		for _, k := range kids {
			lo := max(k.Start, end)
			if k.End > lo {
				covered += k.End - lo
			}
			end = max(end, k.End)
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered).Seconds()
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
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
