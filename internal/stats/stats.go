// Package stats attributes simulated cycles to the four runtime
// components the paper's Figures 6–10 and 12 report: User (application
// work, software address translation, and hardware shared-memory
// stalls), Lock, Barrier, and MGS (all software coherence protocol
// time, including fault waits and protocol handler occupancy).
package stats

import (
	"fmt"
	"strings"

	"mgs/internal/obs"
	"mgs/internal/sim"
)

// Category is one runtime component.
type Category uint8

const (
	// User: application cycles, translation, hardware memory stalls.
	User Category = iota
	// Lock: acquiring, holding queues for, and waiting on MGS locks.
	Lock
	// Barrier: executing and waiting in barriers.
	Barrier
	// MGS: software shared-memory protocol processing and fault waits.
	MGS

	// NumCategories is the number of categories.
	NumCategories
)

var categoryNames = [...]string{"User", "Lock", "Barrier", "MGS"}

// String returns the category name used in the paper's figures.
func (c Category) String() string { return categoryNames[c] }

// Fault is the fault-injection transport's accounting view: what the
// deterministic fault plan did to inter-SSMP traffic and what the
// recovery machinery (internal/msg reliable.go) paid to survive it.
// All zeros when no fault plan is attached.
type Fault struct {
	// Messages is the number of logical inter-SSMP messages that
	// traversed the fault layer (retransmissions excluded).
	Messages int64
	// Dropped counts transmission attempts lost in the network.
	Dropped int64
	// Duplicated counts attempts the network delivered twice.
	Duplicated int64
	// Delayed counts attempts held beyond their fault-free latency.
	Delayed int64
	// DupSuppressed counts deliveries the receiver's sequence check
	// recognized as replays and dropped before handler dispatch.
	DupSuppressed int64
	// Timeouts counts retransmission timers that fired unacknowledged.
	Timeouts int64
	// Retransmits counts retransmission attempts launched (equal to
	// Timeouts today; kept separate so a future fast-retransmit path
	// stays accountable).
	Retransmits int64
	// RetransBytes is the payload bytes carried by retransmissions.
	RetransBytes int64
	// Acks counts transport-level acknowledgments generated; AckDropped
	// of them were lost (forcing a timeout at the sender).
	Acks, AckDropped int64
	// DelayCycles sums the extra wire latency the plan injected.
	DelayCycles int64
	// RecoveryCycles sums, over delivered messages, the gap between the
	// fault-free arrival estimate and the actual first delivery — the
	// added protocol cycles paid to timeouts, backoff, and delays.
	RecoveryCycles int64
}

// Active reports whether any fault-layer activity was recorded.
func (f Fault) Active() bool { return f.Messages != 0 }

// String renders the view in one line.
func (f Fault) String() string {
	return fmt.Sprintf(
		"msgs=%d dropped=%d dup=%d delayed=%d dupsuppressed=%d timeouts=%d retrans=%d retransbytes=%d acks=%d ackdropped=%d delaycycles=%d recoverycycles=%d",
		f.Messages, f.Dropped, f.Duplicated, f.Delayed, f.DupSuppressed,
		f.Timeouts, f.Retransmits, f.RetransBytes, f.Acks, f.AckDropped,
		f.DelayCycles, f.RecoveryCycles)
}

// Collector accumulates per-processor cycle buckets and named event
// counters for one run. Counters live in an obs.Registry (a private one
// by default); Use swaps in an observer's shared registry and arms the
// cycle-attribution profiler, so the collector doubles as the bridge
// between the simulation's charge sites and the observability spine.
type Collector struct {
	buckets [][NumCategories]sim.Time
	reg     *obs.Registry
	prof    *obs.Profiler

	// Fault is the fault-injection accounting view for the run; the
	// harness hands the transport a pointer to it at attach time.
	Fault Fault
}

// NewCollector returns a collector for nprocs processors with a private
// metrics registry.
func NewCollector(nprocs int) *Collector {
	c := &Collector{
		buckets: make([][NumCategories]sim.Time, nprocs),
		reg:     obs.NewRegistry(),
	}
	c.registerFaultGauges()
	return c
}

// Use attaches the collector to an observer: counters re-register onto
// the observer's registry and, when the observer has profiling enabled,
// every subsequent Charge also feeds the cycle-attribution
// profiler. Call before the run starts (counters do not migrate).
func (c *Collector) Use(o *obs.Observer) {
	if o == nil {
		return
	}
	if r := o.Registry(); r != nil {
		c.reg = r
		c.registerFaultGauges()
	}
	c.prof = o.InitProfiler(len(c.buckets), int(NumCategories))
}

// Registry exposes the collector's metrics registry so protocol and
// sync layers can register their own gauges and histograms.
func (c *Collector) Registry() *obs.Registry { return c.reg }

// registerFaultGauges exposes the fault-transport accounting view as
// gauges, read live at snapshot time.
func (c *Collector) registerFaultGauges() {
	f := &c.Fault
	c.reg.Gauge("fault.msgs", func() int64 { return f.Messages })
	c.reg.Gauge("fault.dropped", func() int64 { return f.Dropped })
	c.reg.Gauge("fault.duplicated", func() int64 { return f.Duplicated })
	c.reg.Gauge("fault.delayed", func() int64 { return f.Delayed })
	c.reg.Gauge("fault.dupsuppressed", func() int64 { return f.DupSuppressed })
	c.reg.Gauge("fault.timeouts", func() int64 { return f.Timeouts })
	c.reg.Gauge("fault.retransmits", func() int64 { return f.Retransmits })
	c.reg.Gauge("fault.recoverycycles", func() int64 { return f.RecoveryCycles })
}

// ProfSet switches processor p's profiler attribution object, returning
// the previous object for restore. Nil-safe: with no profiler armed it
// is a no-op that returns zeros.
func (c *Collector) ProfSet(p int, kind obs.ObjKind, id int64) (obs.ObjKind, int64) {
	if c.prof == nil {
		return obs.ObjNone, 0
	}
	return c.prof.SetContext(p, kind, id)
}

// ProfContext returns processor p's current profiler attribution
// object. Nil-safe: with no profiler armed it returns zeros.
func (c *Collector) ProfContext(p int) (obs.ObjKind, int64) {
	if c.prof == nil {
		return obs.ObjNone, 0
	}
	return c.prof.Context(p)
}

// Charge adds cycles to a specific bucket of processor p. With a
// profiler armed, the same cycles are attributed to p's current object
// context, which is what keeps profiler totals and Breakdown in exact
// agreement.
func (c *Collector) Charge(p int, cat Category, cycles sim.Time) {
	c.buckets[p][cat] += cycles
	if c.prof != nil {
		c.prof.Charge(p, int(cat), cycles)
	}
}

// Counter returns the value of a named counter.
func (c *Collector) Counter(name string) int64 { return c.reg.Counter(name).Value() }

// Counters returns all counters as sorted "name=value" strings.
func (c *Collector) Counters() []string { return c.reg.CounterStrings() }

// Breakdown is the aggregate result of a run.
type Breakdown struct {
	// PerProc[p][cat] is processor p's cycles in cat.
	PerProc [][NumCategories]sim.Time
	// Avg[cat] is the mean over processors.
	Avg [NumCategories]float64
	// Total[cat] sums over processors.
	Total [NumCategories]sim.Time
}

// Breakdown summarizes the collected buckets.
func (c *Collector) Breakdown() Breakdown {
	b := Breakdown{PerProc: make([][NumCategories]sim.Time, len(c.buckets))}
	copy(b.PerProc, c.buckets)
	n := float64(len(c.buckets))
	for _, pb := range c.buckets {
		for cat := Category(0); cat < NumCategories; cat++ {
			b.Total[cat] += pb[cat]
		}
	}
	for cat := Category(0); cat < NumCategories; cat++ {
		b.Avg[cat] = float64(b.Total[cat]) / n
	}
	return b
}

// AvgTotal returns the mean total busy cycles per processor.
func (b Breakdown) AvgTotal() float64 {
	var s float64
	for _, v := range b.Avg {
		s += v
	}
	return s
}

// String renders the breakdown in one line, components in figure order.
func (b Breakdown) String() string {
	var sb strings.Builder
	for cat := Category(0); cat < NumCategories; cat++ {
		if cat > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%.0f", cat, b.Avg[cat])
	}
	return sb.String()
}
