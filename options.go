package mgs

import (
	"mgs/internal/harness"
)

// Option mutates a Config under construction; pass options to
// NewConfig. All options are re-exported from the harness layer, so a
// Config built here is identical to one the internal tools build.
type Option = harness.Option

// NewConfig returns the calibrated paper configuration for p processors
// in clusters of c — 1K-byte pages, a 64-entry software TLB, a
// 1000-cycle inter-SSMP delay, and null MGS calls when c == p (the
// paper's tightly-coupled baseline: one SSMP needs no software
// coherence) — then applies the options in order:
//
//	cfg := mgs.NewConfig(16, 4,
//	    mgs.WithPageSize(2048),
//	    mgs.WithObserver(obsv))
func NewConfig(p, c int, opts ...Option) Config { return harness.NewConfig(p, c, opts...) }

// WithPageSize sets the virtual page size in bytes (a power of two of
// at least one cache line and at most 64 KB).
func WithPageSize(bytes int) Option { return harness.WithPageSize(bytes) }

// WithTLBSize sets the per-processor software TLB capacity (1 to 65536
// entries).
func WithTLBSize(entries int) Option { return harness.WithTLBSize(entries) }

// WithInterSSMPDelay sets the fixed inter-SSMP message latency in
// cycles (the paper's emulated-LAN knob).
func WithInterSSMPDelay(d Time) Option { return harness.WithInterSSMPDelay(d) }

// WithFaultPlan attaches a deterministic fault-injection plan to the
// inter-SSMP transport: messages are dropped, duplicated, and delayed
// per the plan's seeded schedule, and the reliable transport
// (sequence numbers, acks, retransmission) recovers. Runs stay fully
// deterministic; an empty plan is the identity.
func WithFaultPlan(p FaultPlan) Option { return harness.WithFaultPlan(p) }

// WithObserver attaches an observability spine to the machine: trace
// sinks, the metrics registry, and (if enabled) the cycle-attribution
// profiler. A nil observer — or none at all — keeps every emission path
// structurally detached; runs are bit-identical either way.
func WithObserver(o *Observer) Option { return harness.WithObserver(o) }

// WithTopology selects the inter-SSMP interconnect. The default is the
// paper's uniform fixed-delay LAN (NewUniform); NewMesh2D and
// NewTiered add routed topologies with per-link latency and
// bandwidth contention for scaling studies:
//
//	cfg := mgs.NewConfig(1024, 4, mgs.WithTopology(mgs.NewTiered(8)))
func WithTopology(t Topology) Option { return harness.WithTopology(t) }

// WithLockAlgo selects the lock algorithm by name: "token" (the
// default two-level MGS token lock), "ticket", "mcs", or "tournament".
// Every algorithm runs as message sequences over the real protocol, so
// acquires fault pages, waits charge cycles, and remote handoffs pay
// interconnect latency on every topology:
//
//	cfg := mgs.NewConfig(32, 4, mgs.WithLockAlgo("mcs"))
func WithLockAlgo(name string) Option { return harness.WithLockAlgo(name) }

// WithBarrierAlgo selects the barrier algorithm by name: "tree" (the
// default two-level MGS tree barrier), "sense", "dissemination",
// "mcstree", or "tournament":
//
//	cfg := mgs.NewConfig(32, 4, mgs.WithBarrierAlgo("dissemination"))
func WithBarrierAlgo(name string) Option { return harness.WithBarrierAlgo(name) }
