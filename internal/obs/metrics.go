package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the metrics registry: named counters, gauges, and
// virtual-time histograms. Registration is get-or-create by name, so
// independent subsystems can share a registry without coordination.
// Snapshots are deterministic: names sort lexicographically and
// histogram bucket layouts are fixed at registration.
//
// The registry is safe for concurrent use: the parallel event
// dispatcher's shards count into it simultaneously. The mutex covers
// only the name maps; counters and histograms update with atomics, so
// the hot increment path takes no lock. Concurrent totals stay
// deterministic because the committed event set is schedule-independent
// and addition commutes (histogram buckets likewise: each observation
// lands in a fixed bucket).
//
//mgs:shared
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter     //mgs:guardedby mu
	gauges   map[string]func() int64 //mgs:guardedby mu
	hists    map[string]*Histogram   //mgs:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically growing event count.
//
//mgs:shared
type Counter struct {
	v int64 //mgs:atomic
}

// Add increments the counter.
//
// Must not allocate: pinned by TestMetricHotPathZeroAllocs.
func (c *Counter) Add(delta int64) { atomic.AddInt64(&c.v, delta) }

// Value reads the counter.
//
// Must not allocate: pinned by TestMetricHotPathZeroAllocs.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Add increments the named counter, creating it at first touch.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// Gauge registers a read-on-snapshot value: fn is evaluated when the
// registry is snapshotted, so subsystems expose live state (directory
// sizes, hit totals, TLB occupancy) without double bookkeeping.
// Re-registering a name replaces the reader.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// TimeBuckets is the fixed virtual-time histogram layout: roughly
// logarithmic from a cache hit to a long protocol round, in cycles.
// The final implicit bucket catches everything larger.
var TimeBuckets = []int64{
	100, 300, 1_000, 3_000, 10_000, 30_000,
	100_000, 300_000, 1_000_000, 3_000_000,
}

// Histogram counts observations into fixed buckets. Bounds[i] is the
// inclusive upper edge of bucket i; one extra bucket holds overflows.
//
//mgs:shared
type Histogram struct {
	// bounds is fixed at registration and read-only afterwards: it
	// deliberately carries no annotation, so any post-construction write
	// trips the unannotated-shared-field check.
	bounds []int64
	counts []int64 //mgs:atomic
	sum    int64   //mgs:atomic
	n      int64   //mgs:atomic
}

// Observe records one value.
//
// Must not allocate: pinned by TestMetricHotPathZeroAllocs.
func (h *Histogram) Observe(v int64) {
	atomic.AddInt64(&h.n, 1)
	atomic.AddInt64(&h.sum, v)
	for i, b := range h.bounds {
		if v <= b {
			atomic.AddInt64(&h.counts[i], 1)
			return
		}
	}
	atomic.AddInt64(&h.counts[len(h.bounds)], 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.n) }

// Quantile returns a bucket-interpolated estimate of the p-quantile
// (0 < p <= 1) of the observed distribution: the target rank p·n is
// located in the cumulative bucket counts and the value interpolated
// linearly inside the containing bucket, which is exact whenever
// observations are uniform within each bucket. Ranks that land in the
// unbounded overflow bucket clamp to the last finite bound (the
// estimate cannot exceed the layout's range); an empty histogram
// reports 0. Safe to call concurrently with Observe — the estimate is
// computed from one atomic pass over the buckets.
func (h *Histogram) Quantile(p float64) float64 {
	n := atomic.LoadInt64(&h.n)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(n)
	var cum int64
	lo := int64(0)
	for i, b := range h.bounds {
		c := atomic.LoadInt64(&h.counts[i])
		if c > 0 && float64(cum+c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return float64(lo) + frac*float64(b-lo)
		}
		cum += c
		lo = b
	}
	return float64(lo)
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Buckets returns the bucket upper bounds and per-bucket counts (the
// last count is the overflow bucket). The returned slices are live;
// callers must not mutate them.
func (h *Histogram) Buckets() (bounds, counts []int64) { return h.bounds, h.counts }

// Histogram returns (creating if needed) the named histogram with the
// given bucket bounds; bounds are fixed at first registration and nil
// means TimeBuckets.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = TimeBuckets
		}
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// MetricKind tags a snapshot entry.
type MetricKind uint8

const (
	// CounterKind is a monotonically growing count.
	CounterKind MetricKind = iota
	// GaugeKind is a point-in-time reading.
	GaugeKind
	// HistogramKind is a bucketed distribution.
	HistogramKind
)

var metricKindNames = [...]string{"counter", "gauge", "histogram"}

// String names the kind.
func (k MetricKind) String() string { return metricKindNames[k] }

// Metric is one snapshot entry.
type Metric struct {
	Name  string
	Kind  MetricKind
	Value int64 // counter or gauge value; histogram observation count
	Sum   int64 // histograms only: sum of observations
	// Bounds/Counts are the histogram layout (Counts has one extra
	// overflow bucket); nil for counters and gauges.
	Bounds, Counts []int64
}

// String renders one snapshot line.
func (m Metric) String() string {
	switch m.Kind {
	case HistogramKind:
		var b strings.Builder
		fmt.Fprintf(&b, "%s n=%d sum=%d", m.Name, m.Value, m.Sum)
		for i, c := range m.Counts {
			if c == 0 {
				continue
			}
			if i < len(m.Bounds) {
				fmt.Fprintf(&b, " le%d=%d", m.Bounds[i], c)
			} else {
				fmt.Fprintf(&b, " inf=%d", c)
			}
		}
		return b.String()
	default:
		return fmt.Sprintf("%s=%d", m.Name, m.Value)
	}
}

// Snapshot returns every metric, counters first, then gauges, then
// histograms, each group sorted by name — a deterministic, stable
// ordering for goldens and CSVs.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, n := range names {
		out = append(out, Metric{Name: n, Kind: CounterKind, Value: r.counters[n].Value()})
	}
	names = names[:0]
	var gnames []string
	for n := range r.gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	gauges := make([]func() int64, len(gnames))
	for i, n := range gnames {
		gauges[i] = r.gauges[n]
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	hists := make([]*Histogram, len(names))
	for i, n := range names {
		hists[i] = r.hists[n]
	}
	r.mu.Unlock()
	// Gauge readers run outside the lock: they may re-enter the registry
	// (e.g. a gauge aggregating counters).
	for i, n := range gnames {
		out = append(out, Metric{Name: n, Kind: GaugeKind, Value: gauges[i]()})
	}
	for i, n := range names {
		h := hists[i]
		counts := make([]int64, len(h.counts))
		for j := range h.counts {
			counts[j] = atomic.LoadInt64(&h.counts[j])
		}
		out = append(out, Metric{
			Name: n, Kind: HistogramKind, Value: h.Count(), Sum: h.Sum(),
			Bounds: h.bounds, Counts: counts,
		})
	}
	return out
}

// CounterStrings renders just the counters as sorted "name=value"
// lines — the legacy Collector.Counters shape.
func (r *Registry) CounterStrings() []string {
	r.mu.Lock()
	out := make([]string, 0, len(r.counters))
	for k, v := range r.counters {
		out = append(out, fmt.Sprintf("%s=%d", k, v.Value()))
	}
	r.mu.Unlock()
	sort.Strings(out)
	return out
}
