// The counters/histograms registry: named aggregates maintained alongside
// the event stream, snapshotted once per run. Tap emit methods feed it, so
// a run's headline telemetry (frames sent, legs per outcome, latency
// distribution) is available without re-scanning the JSONL.

package telemetry

import "math"

// Registry accumulates named counters and histograms for one run.
type Registry struct {
	counters map[string]uint64
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Inc adds n to a named counter.
func (r *Registry) Inc(name string, n uint64) {
	if r == nil {
		return
	}
	r.counters[name] += n
}

// Counter returns a named counter's value (0 if never incremented).
func (r *Registry) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// Observe records one sample into a named histogram.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{Min: math.Inf(1), Max: math.Inf(-1)}
		r.hists[name] = h
	}
	h.observe(v)
}

// histBuckets geometric buckets with ratio 4 starting at bucketBase cover
// 1 µs up to ~4.6 days — wide enough for latencies in seconds and frame
// sizes in bytes alike.
const (
	histBuckets = 20
	bucketBase  = 1e-6
)

// bucketBound returns the inclusive upper bound of bucket i; the last
// bucket additionally absorbs everything larger.
func bucketBound(i int) float64 {
	bound := bucketBase
	for k := 0; k < i; k++ {
		bound *= 4
	}
	return bound
}

// Histogram is a fixed-bucket geometric histogram with count/sum/min/max.
type Histogram struct {
	Count   uint64
	Sum     float64
	Min     float64
	Max     float64
	buckets [histBuckets]uint64
}

func (h *Histogram) observe(v float64) {
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	bound := bucketBase
	for i := 0; i < histBuckets-1; i++ {
		if v <= bound {
			h.buckets[i]++
			return
		}
		bound *= 4
	}
	h.buckets[histBuckets-1]++
}
