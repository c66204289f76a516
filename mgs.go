// Package mgs is a from-scratch reproduction of "MGS: A Multigrain
// Shared Memory System" (Yeung, Kubiatowicz, Agarwal — ISCA 1996): a
// shared memory system for Distributed Scalable Shared-memory
// Multiprocessors (DSSMPs) that couples hardware cache coherence inside
// each small multiprocessor (SSMP) with software page-based distributed
// shared memory between them.
//
// Because the paper's substrate is hardware (the MIT Alewife machine),
// this implementation runs on a deterministic, cycle-accounted
// multiprocessor simulator: applications are real Go code computing
// real, verified results, while every shared-memory access passes
// through simulated TLBs, caches, directories, page tables, and the
// full MGS protocol (Local Client / Remote Client / Server engines,
// twin/diff multiple-writer release consistency, the single-writer
// optimization, and the hierarchical barrier and token-lock library).
//
// # Quick start
//
//	cfg := mgs.NewConfig(16, 4) // 16 processors, SSMPs of 4
//	m := mgs.NewMachine(cfg)
//	sum := m.Alloc(8)
//	res, err := m.Run(func(c *mgs.Ctx) {
//	    c.Acquire(0)
//	    c.StoreI64(sum, c.LoadI64(sum)+int64(c.ID))
//	    c.Release(0)
//	    c.Barrier(0)
//	})
//
// res.Breakdown splits execution into the paper's User / Lock /
// Barrier / MGS components; res.LockHits/LockTotal give the Figure 11
// lock hit ratio.
//
// The paper's applications live in internal/apps, the experiment
// definitions (every table and figure of §5) in internal/exp, and the
// runnable tools in cmd/. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
package mgs

import (
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// Config describes a DSSMP: processor count, cluster size, page size,
// inter-SSMP latency, and all hardware/software cost tables.
type Config = harness.Config

// Machine is an assembled DSSMP ready to run one workload.
type Machine = harness.Machine

// Ctx is the per-processor programming interface: simulated loads and
// stores, compute-cycle charging, locks, and barriers.
type Ctx = harness.Ctx

// App is a runnable, self-verifying application.
type App = harness.App

// Result summarizes a run: cycles, User/Lock/Barrier/MGS breakdown,
// lock hit statistics, and message traffic.
type Result = harness.Result

// Addr is a simulated virtual address.
type Addr = vm.Addr

// Time is virtual time in processor clock cycles.
type Time = sim.Time

// Topology is a pluggable inter-SSMP interconnect: a routing function
// over directed links with per-link latency and bandwidth. See
// WithTopology.
type Topology = msg.Topology

// NewUniform returns the paper's uniform fixed-delay LAN topology (the
// default): every inter-SSMP message pays InterDelay, no contention.
func NewUniform() Topology { return msg.NewUniform() }

// NewMesh2D returns a near-square 2D mesh of SSMPs with
// dimension-ordered routing and store-and-forward link contention.
func NewMesh2D() Topology { return msg.NewMesh2D() }

// NewTiered returns a heterogeneous LAN/WAN topology: sites of siteSize
// SSMPs on fast local switches, joined by thin, slow WAN trunks;
// siteSize <= 0 means the default 8.
func NewTiered(siteSize int) Topology { return msg.NewTiered(siteSize) }

// NewMachine assembles a DSSMP from a configuration.
func NewMachine(cfg Config) *Machine { return harness.NewMachine(cfg) }

// RunApp builds a machine, runs the application, and verifies its
// result.
func RunApp(app App, cfg Config) (Result, error) { return harness.RunApp(app, cfg) }
