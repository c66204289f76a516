package algo

import (
	"fmt"

	"mgs/internal/mem"
	"mgs/internal/msg"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// Costs parameterizes synchronization overheads, in cycles.
type Costs struct {
	LockOp    sim.Time // local lock manipulation in shared memory
	BarrierOp sim.Time // local barrier counter update
	TokenWork sim.Time // global-lock handler bookkeeping
}

// DefaultCosts returns reasonable hardware-shared-memory costs.
func DefaultCosts() Costs {
	return Costs{LockOp: 60, BarrierOp: 60, TokenWork: 120}
}

// Env is the toolkit an algorithm programs against: machine shape, cost
// table, tagged message sends over the real msg.Network, and the
// accounting hooks that feed the shared lock/barrier statistics,
// histograms, and trace stream. msync.New builds the machine's one Env.
// It is a concrete type so the trace hooks' variadic arguments stay off
// the heap when no sink is attached.
type Env struct {
	eng   *sim.Engine
	net   *msg.Network
	st    *stats.Collector
	obs   *obs.Observer // nil or sink-less keeps the trace path detached
	costs Costs
	p, c  int

	// Wait-time distributions, registered on the collector's registry:
	// cycles parked per lock acquire and per barrier episode.
	lockWait, barrierWait *obs.Histogram

	// Critical-section counters, resolved on the first CountCS so a
	// run with no lock registers neither.
	heldCycles, cs *obs.Counter

	msgs mem.Slab[message]  // every message record
	free mem.Pool[*message] // delivered records, for newMsg
}

// NewEnv builds the environment for a p-processor machine with clusters
// of c processors.
func NewEnv(eng *sim.Engine, net *msg.Network, st *stats.Collector, o *obs.Observer, p, c int, costs Costs) *Env {
	reg := st.Registry()
	return &Env{eng: eng, net: net, st: st, obs: o, costs: costs, p: p, c: c,
		lockWait:    reg.Histogram("lock.waitcycles", nil),
		barrierWait: reg.Histogram("barrier.waitcycles", nil),
	}
}

// Shape.

func (e *Env) NProcs() int         { return e.p }
func (e *Env) NSSMP() int          { return e.p / e.c }
func (e *Env) ClusterSize() int    { return e.c }
func (e *Env) SSMPOf(proc int) int { return proc / e.c }

// RepProc is the processor that runs SSMP-side handlers for object id
// in SSMP s — spread across the SSMP's processors by id.
func (e *Env) RepProc(s, id int) int { return s*e.c + id%e.c }

// Cost table.

func (e *Env) LockOp() sim.Time    { return e.costs.LockOp }
func (e *Env) BarrierOp() sim.Time { return e.costs.BarrierOp }
func (e *Env) TokenWork() sim.Time { return e.costs.TokenWork }
func (e *Env) SendCost() sim.Time  { return e.net.SendCost() }

// Send delivers a 32-byte control message from processor from to
// processor to, no earlier than when, and runs r.deliver(k, a) as a
// handler charged work cycles at the receiver. kind/id/aux label the
// delivery as a model-checker choice point; the label is inert outside
// the checker. Every message an algorithm sends leaves here.
func (e *Env) Send(kind string, id, from, to int, when sim.Time, aux int64, work sim.Time, r receiver, k uint8, a args) {
	e.net.SendTagged(sim.Label{Kind: kind, Page: int64(id), Src: from, Dst: to, Aux: aux},
		from, to, when, 32, work, e.newMsg(r, k, a))
}

// At runs r.deliver(k, a) at time t as an engine event: an in-SSMP
// wakeup through hardware shared memory, not a message.
func (e *Env) At(t sim.Time, r receiver, k uint8, a args) {
	m := e.newMsg(r, k, a)
	m.at = t
	e.eng.AtHandler(t, m)
}

// receiver is a lock or barrier that handles its own messages: k is one
// of its kinds, a the arguments that kind lists.
type receiver interface {
	deliver(k uint8, a args, at sim.Time)
}

// args are a message's arguments; which ones a kind reads is listed at
// the kind.
type args struct {
	p, q *sim.Proc
	a    int
	b    int64
}

// message is one sync message or in-SSMP wakeup, for every algorithm:
// the msg.Handler of its delivery or the sim.Handler of its event. It
// goes back to the Env's pool before its receiver runs, so the messages
// the handler sends reuse it.
type message struct {
	env  *Env
	rcv  receiver
	kind uint8
	at   sim.Time // an At event's time
	args
}

// newMsg takes a record off the pool, or carves a fresh one.
func (e *Env) newMsg(r receiver, k uint8, a args) *message {
	m, ok := e.free.Get()
	if !ok {
		m = e.msgs.New()
	}
	*m = message{env: e, rcv: r, kind: k, args: a}
	return m
}

// Records returns the counts of the Env's pool of message records: it
// carves only as many as were ever in flight at once.
func (e *Env) Records() mem.Counts { return e.free.Counts }

// Deliver runs the message's handler at time at (msg.Handler).
func (m *message) Deliver(at sim.Time) {
	e, r, k, a := m.env, m.rcv, m.kind, m.args
	*m = message{env: e} // drop what it referenced
	e.free.Put(m)
	r.deliver(k, a, at)
}

// Fire runs an At event (sim.Handler).
func (m *message) Fire() { m.Deliver(m.at) }

// ChargeLock advances p by cycles and attributes them to Lock.
func (e *Env) ChargeLock(p *sim.Proc, cycles sim.Time) {
	p.Advance(cycles)
	e.st.Charge(p.ID, stats.Lock, cycles)
}

// ChargeBarrier advances p by cycles and attributes them to Barrier.
func (e *Env) ChargeBarrier(p *sim.Proc, cycles sim.Time) {
	p.Advance(cycles)
	e.st.Charge(p.ID, stats.Barrier, cycles)
}

// ParkLock parks p until its grant wakes it, then charges the parked
// time to Lock and observes it into the lock wait histogram.
func (e *Env) ParkLock(p *sim.Proc) { e.park(p, stats.Lock, e.lockWait) }

// ParkBarrier is ParkLock for a barrier episode.
func (e *Env) ParkBarrier(p *sim.Proc) { e.park(p, stats.Barrier, e.barrierWait) }

func (e *Env) park(p *sim.Proc, cat stats.Category, h *obs.Histogram) {
	c0 := p.Clock()
	p.Park()
	waited := p.Clock() - c0
	e.st.Charge(p.ID, cat, waited)
	h.Observe(int64(waited))
}

// CountCS records one critical section of the given occupancy: its
// cycles in lock.heldcycles and one lock.cs.
func (e *Env) CountCS(held sim.Time) {
	if e.cs == nil {
		reg := e.st.Registry()
		e.heldCycles, e.cs = reg.Counter("lock.heldcycles"), reg.Counter("lock.cs")
	}
	e.heldCycles.Add(int64(held))
	e.cs.Add(1)
}

// Tracing reports whether a trace sink is attached. A call site whose
// arguments would box heap values tests it first, so an untraced run
// allocates nothing for the trace.
func (e *Env) Tracing() bool { return e.obs.Tracing() }

// EmitLock publishes one lock trace event. Detail formatting runs only
// when a sink is attached; emission charges no simulated cycles.
func (e *Env) EmitLock(at sim.Time, proc, id int, name, format string, args ...any) {
	if e.obs.Tracing() {
		e.emit(at, proc, obs.ObjLock, id, name, format, args)
	}
}

// EmitBarrier is EmitLock for barrier events.
func (e *Env) EmitBarrier(at sim.Time, proc, id int, name, format string, args ...any) {
	if e.obs.Tracing() {
		e.emit(at, proc, obs.ObjBarrier, id, name, format, args)
	}
}

func (e *Env) emit(at sim.Time, proc int, kind obs.ObjKind, id int, name, format string, args []any) {
	var detail string
	if format != "" {
		detail = fmt.Sprintf(format, args...)
	}
	e.obs.Emit(obs.Event{
		T: at, Proc: proc, Cat: obs.Sync, Name: name,
		Kind: kind, ID: int64(id), Detail: detail,
	})
}
