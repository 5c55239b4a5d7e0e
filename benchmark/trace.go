package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (spans inside the program are a later
// change). Spans of one replayed request share Request; Parent is the ID
// of the span whose call caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced twin of a traced loop runs the same
// code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: make(map[string]int64)} }

// start opens a span and returns its ID and the function that closes it.
func (t *tracer) start(name string, parent, request int) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, StartNs: begin})
	id = len(t.spans)
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNs = stop
		t.mu.Unlock()
	}
}

// count adds to a counter taken at the same boundary as a span, so
// ratios are measured where the work happens.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its direct children
// cover. Children may overlap one another (parallel shards) and may
// stick out of the parent; only the union of their intervals, clipped to
// the parent, is subtracted.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.StartNs
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// coveredIn sums, over the spans with the given name, the time their
// direct children cover.
func coveredIn(spans []span, name string) time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var total int64
	for _, s := range spans {
		if s.Name == name {
			total += covered(s, children[s.ID])
		}
	}
	return time.Duration(total)
}

// write stores the spans, the counters and each layer's summed self time
// as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		SelfNs map[string]time.Duration `json:"self_ns"`
		Counts map[string]int64         `json:"counts"`
		Spans  []span                   `json:"spans"`
	}{selfTimes(t.spans), t.counts, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
