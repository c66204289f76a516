// Package obs is the observability spine: one pluggable layer that
// every software engine of the simulator reports through. It has three
// legs, all strictly zero-cost in simulated cycles and structurally
// detached when disabled:
//
//   - a structured trace bus (Event) with pluggable sinks: typed
//     protocol transitions, transport fates, synchronization operations
//     and engine handshakes, timestamped in virtual time. The classic
//     "t=<cycle> ..." text log is one sink (TextSink); a Chrome
//     trace_event JSON exporter for chrome://tracing / Perfetto is
//     another (ChromeSink).
//
//   - a metrics registry (Registry): named counters, gauges, and
//     virtual-time histograms with fixed bucket layouts, so that two
//     runs of one simulation snapshot identically. internal/stats,
//     internal/msync, and the fault transport register here instead of
//     hand-rolling counter fields.
//
//   - a cycle-attribution profiler (Profiler): every simulated cycle a
//     run charges is attributed to a (processor, component, object)
//     key, where the object is the page, lock, or barrier the cycles
//     were spent on. The profiler emits per-page heat reports and
//     collapsed-stack files for flamegraph tooling, and its totals
//     reconcile exactly with the stats breakdown.
//
// Determinism contract: obs code runs on the simulated path (sinks fire
// from engine context), so everything here is deterministic — virtual
// timestamps only, no host clocks, no map-iteration-order leaks, and no
// simulated cycles are ever charged from an emission path. mgslint
// enforces the first two (the package is on the deterministic
// allow-list). The third holds by construction here — nothing in obs
// holds a *sim.Proc, *sim.Engine or *msg.Network — and at every emit
// site elsewhere by exp.TestObserversDoNotPerturbRun, which arms each
// instrument on machines that fire every emitter and requires the run
// to match a bare one.
//
// A nil *Observer is valid everywhere and means "observability off";
// every method short-circuits, so instrumented code needs no branches
// beyond the nil test the helpers already perform.
package obs

// Observer bundles the three legs. The zero value is unusable; call
// New. A nil *Observer is the disabled spine: Tracing reports false,
// Emit is a no-op, Registry returns nil, and the profiler never exists.
type Observer struct {
	sinks   []Sink
	reg     *Registry
	prof    *Profiler
	profile bool
}

// New returns an Observer with a fresh metrics registry, no sinks, and
// profiling off.
func New() *Observer {
	return &Observer{reg: NewRegistry()}
}

// AddSink attaches a trace sink and returns the observer (chainable).
func (o *Observer) AddSink(s Sink) *Observer {
	o.sinks = append(o.sinks, s)
	return o
}

// EnableProfiling arms the cycle-attribution profiler; the machine the
// observer is attached to sizes and creates it (InitProfiler). Returns
// the observer (chainable).
func (o *Observer) EnableProfiling() *Observer {
	o.profile = true
	return o
}

// Tracing reports whether any trace sink is attached. Emitters must
// check it before building an Event so the disabled path stays free.
func (o *Observer) Tracing() bool { return o != nil && len(o.sinks) > 0 }

// Emit publishes one event to every sink, in attach order. Emission
// charges no simulated cycles — events are timestamped with the virtual
// time the emitter passes in, never with a clock read.
func (o *Observer) Emit(e Event) {
	for _, s := range o.sinks {
		s.Emit(e)
	}
}

// Registry returns the metrics registry, or nil on a nil observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// InitProfiler creates the profiler for a machine of nprocs processors
// and ncomp attribution components, if profiling was enabled. It
// returns the profiler (nil when profiling is off or o is nil). Calling
// it twice returns the first profiler — an observer watches one
// machine.
func (o *Observer) InitProfiler(nprocs, ncomp int) *Profiler {
	if o == nil || !o.profile {
		return nil
	}
	if o.prof == nil {
		o.prof = NewProfiler(nprocs, ncomp)
	}
	return o.prof
}

// Profiler returns the profiler created by InitProfiler, or nil.
func (o *Observer) Profiler() *Profiler {
	if o == nil {
		return nil
	}
	return o.prof
}

// Metrics snapshots the registry (nil observer: no metrics).
func (o *Observer) Metrics() []Metric {
	if o == nil || o.reg == nil {
		return nil
	}
	return o.reg.Snapshot()
}
