// Package msync is the MGS user-level synchronization library (paper
// §3.2): primitives that know the DSSMP hierarchy and contain
// communication within an SSMP whenever possible.
//
// The ordering protocols themselves — the paper's token-based
// distributed lock and two-level tree barrier (the defaults), and every
// other algorithm SetAlgos can select — live in msync/algo as one
// family of message protocols over one algo.Env. This package owns what
// they all share: the id → instance registry, and the shim that makes
// every lock and barrier a release-consistency synchronization point.
// A release or barrier arrival first drains the caller's delayed update
// queue through core.System.ReleaseAll — which is exactly where the
// paper's critical-section dilation comes from — and every lock grant
// and barrier exit runs core.System.AcquireSync, so under the
// lazy-release extension they validate the acquiring SSMP's copies
// against the home versions. The shim also charges each acquire,
// release and arrival its LockOp/BarrierOp and counts the acquires.
// Every algorithm therefore pays the same coherence and operation
// costs.
package msync

import (
	"sort"

	"mgs/internal/core"
	"mgs/internal/mem"
	"mgs/internal/msg"
	"mgs/internal/msync/algo"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// System manages the locks and barriers of one machine.
type System struct {
	dsm *core.System
	st  *stats.Collector
	env *algo.Env

	locks    map[int]*rcLock
	barriers map[int]*rcBarrier

	// The machine-wide algorithm choice for primitives not yet created.
	newLock    algo.NewLock
	newBarrier algo.NewBarrier
}

// New builds the synchronization system for the machine owning dsm,
// running the default algorithms (token lock, tree barrier). o is the
// observability spine sync events are traced to; nil or sink-less keeps
// the trace path structurally detached.
func New(eng *sim.Engine, dsm *core.System, net *msg.Network, st *stats.Collector, costs algo.Costs, o *obs.Observer) *System {
	cfg := dsm.Config()
	m := &System{
		dsm: dsm, st: st,
		env:   algo.NewEnv(eng, net, st, o, cfg.P, cfg.C, costs),
		locks: make(map[int]*rcLock), barriers: make(map[int]*rcBarrier),
	}
	m.newLock, _ = algo.LockByName("") // the defaults always resolve
	m.newBarrier, _ = algo.BarrierByName("")
	reg := st.Registry()
	reg.Gauge("lock.hits", func() int64 { h, _ := m.LockStats(); return h })
	reg.Gauge("lock.total", func() int64 { _, t := m.LockStats(); return t })
	return m
}

// SetAlgos selects the lock and barrier algorithms for primitives not
// yet created. It must run before any lock or barrier exists:
// algorithms are a machine-wide choice, not a per-primitive one.
func (m *System) SetAlgos(la algo.NewLock, ba algo.NewBarrier) {
	if len(m.locks) > 0 || len(m.barriers) > 0 {
		panic("msync: SetAlgos after locks or barriers were created")
	}
	m.newLock, m.newBarrier = la, ba
}

// Lock returns the lock with the given id, creating it on first use,
// homed on processor id mod P.
func (m *System) Lock(id int) *rcLock { return m.LockHomed(id, id) }

// LockHomed returns lock id, creating it with its home on the given
// processor (a lock placed with the data it protects, as the paper's
// per-molecule locks are). The home only takes effect at creation.
func (m *System) LockHomed(id, home int) *rcLock {
	if l, ok := m.locks[id]; ok {
		return l
	}
	l := &rcLock{Lock: m.newLock(m.env, id, home), m: m, id: id}
	m.locks[id] = l
	return l
}

// Barrier returns the barrier with the given id, creating it on first
// use, homed on processor id mod P.
func (m *System) Barrier(id int) algo.Barrier {
	if b, ok := m.barriers[id]; ok {
		return b
	}
	b := &rcBarrier{Barrier: m.newBarrier(m.env, id, id), m: m, id: id}
	m.barriers[id] = b
	return b
}

// Records returns the counts of algo.Env's pool of message records.
func (m *System) Records() mem.Counts { return m.env.Records() }

// Quiescent reports whether every lock and barrier has fully settled:
// no holder, no queued waiter, no protocol message logically in flight.
// The model checker asserts this at the end of every delivery
// interleaving.
func (m *System) Quiescent() error {
	for _, id := range sortedIDs(m.locks) {
		if err := m.locks[id].Quiescent(); err != nil {
			return err
		}
	}
	for _, id := range sortedIDs(m.barriers) {
		if err := m.barriers[id].Quiescent(); err != nil {
			return err
		}
	}
	return nil
}

// DumpState prints every lock's and barrier's state (deadlock
// diagnosis; ids print in sorted order so two dumps of the same state
// compare equal). The model checker also folds this text into its
// state hash, so synchronization state distinguishes interleavings.
func (m *System) DumpState(f func(format string, args ...any)) {
	for _, id := range sortedIDs(m.locks) {
		m.locks[id].Dump(f)
	}
	for _, id := range sortedIDs(m.barriers) {
		m.barriers[id].Dump(f)
	}
}

// sortedIDs returns the map's keys in ascending order, so state walks
// are deterministic.
func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// LockStats aggregates hit/total across every lock.
func (m *System) LockStats() (hits, total int64) {
	for _, l := range m.locks {
		h, t := l.Stats()
		hits += h
		total += t
	}
	return hits, total
}
