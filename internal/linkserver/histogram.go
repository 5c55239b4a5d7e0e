package linkserver

import (
	"sync/atomic"
	"time"
)

// latencyBuckets is the service's one latency bucket table — a node's
// query_latency_buckets and the router's leg_latency_buckets both render
// it: an upper bound (exclusive, in nanoseconds) with its label, in
// ascending order, plus a final catch-all. Histogram's counter array is
// sized from this table, so adding a bucket is a one-line change.
var latencyBuckets = [...]struct {
	boundNs int64
	label   string
}{
	{100_000, "<0.1ms"},
	{500_000, "<0.5ms"},
	{1_000_000, "<1ms"},
	{5_000_000, "<5ms"},
	{10_000_000, "<10ms"},
	{50_000_000, "<50ms"},
	{100_000_000, "<100ms"},
	{1_000_000_000, "<1s"},
	{0, "+inf"}, // bound ignored: catches everything slower
}

// Histogram counts latencies per bucket of latencyBuckets. The zero
// value is ready; Observe is lock-free and safe for concurrent use.
type Histogram struct {
	counts [len(latencyBuckets)]atomic.Int64
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	last := len(latencyBuckets) - 1
	for i, b := range latencyBuckets[:last] {
		if ns < b.boundNs {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[last].Add(1)
}

// Buckets renders the counts keyed by bucket label, as /metrics serves.
func (h *Histogram) Buckets() map[string]int64 {
	out := make(map[string]int64, len(latencyBuckets))
	for i, b := range latencyBuckets {
		out[b.label] = h.counts[i].Load()
	}
	return out
}
