package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Registry is the metrics registry: named counters, gauges, and
// virtual-time histograms. Registration is get-or-create by name, so
// independent subsystems can share a registry without coordination.
// Snapshots are deterministic: names sort lexicographically and
// histogram bucket layouts are fixed at registration.
//
// A registry belongs to one machine and is not safe for concurrent use:
// the run counts into it from the one runnable simulation goroutine and
// callers read it after the run.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram
	lookups  int64 // calls to Counter (Add included)
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
type Counter struct {
	v int64
}

// Add increments the counter.
//
// Must not allocate: pinned by TestMetricHotPathZeroAllocs.
func (c *Counter) Add(delta int64) { c.v += delta }

// Value reads the counter.
//
// Must not allocate: pinned by TestMetricHotPathZeroAllocs.
func (c *Counter) Value() int64 { return c.v }

// Counter returns (creating if needed) the named counter. It is a map
// lookup by name: a hot charge site resolves its *Counter once and
// calls Add on that.
func (r *Registry) Counter(name string) *Counter {
	r.lookups++
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter, creating it at first touch.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// Lookups reports the number of by-name counter lookups (Counter and
// Add calls) so far, like sim.Engine.Dispatched a host-side count: it
// never appears in a snapshot.
func (r *Registry) Lookups() int64 { return r.lookups }

// Gauge registers a read-on-snapshot value: fn is evaluated when the
// registry is snapshotted, so subsystems expose live state (directory
// sizes, hit totals, TLB occupancy) without double bookkeeping.
// Re-registering a name replaces the reader.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.gauges[name] = fn
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
type Histogram struct {
	bounds []int64 // fixed at registration, read-only afterwards
	counts []int64
	sum    int64
	n      int64
}

// Observe records one value.
//
// Must not allocate: pinned by TestMetricHotPathZeroAllocs.
func (h *Histogram) Observe(v int64) {
	h.n++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Quantile returns a bucket-interpolated estimate of the p-quantile
// (0 < p <= 1) of the observed distribution: the target rank p·n is
// located in the cumulative bucket counts and the value interpolated
// linearly inside the containing bucket, which is exact whenever
// observations are uniform within each bucket. Ranks that land in the
// unbounded overflow bucket clamp to the last finite bound (the
// estimate cannot exceed the layout's range); an empty histogram
// reports 0.
func (h *Histogram) Quantile(p float64) float64 {
	n := h.n
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
		c := h.counts[i]
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
func (h *Histogram) Sum() int64 { return h.sum }

// Buckets returns the bucket upper bounds and per-bucket counts (the
// last count is the overflow bucket). The returned slices are live;
// callers must not mutate them.
func (h *Histogram) Buckets() (bounds, counts []int64) { return h.bounds, h.counts }

// Histogram returns (creating if needed) the named histogram with the
// given bucket bounds; bounds are fixed at first registration and nil
// means TimeBuckets.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = TimeBuckets
		}
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
	}
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
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, n := range sortedNames(r.counters) {
		out = append(out, Metric{Name: n, Kind: CounterKind, Value: r.counters[n].Value()})
	}
	for _, n := range sortedNames(r.gauges) {
		out = append(out, Metric{Name: n, Kind: GaugeKind, Value: r.gauges[n]()})
	}
	for _, n := range sortedNames(r.hists) {
		h := r.hists[n]
		out = append(out, Metric{
			Name: n, Kind: HistogramKind, Value: h.Count(), Sum: h.Sum(),
			Bounds: h.bounds, Counts: append([]int64(nil), h.counts...),
		})
	}
	return out
}

// sortedNames returns m's keys in lexicographic order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterStrings renders just the counters as sorted "name=value"
// lines — the legacy Collector.Counters shape.
func (r *Registry) CounterStrings() []string {
	out := make([]string, 0, len(r.counters))
	for k, v := range r.counters {
		out = append(out, fmt.Sprintf("%s=%d", k, v.Value()))
	}
	sort.Strings(out)
	return out
}
