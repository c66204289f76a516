package algo

import (
	"fmt"

	"mgs/internal/sim"
)

// combine is the arrival stage the SSMP-level barriers share (tree,
// dissemination, MCS-tree and tournament): processors of one SSMP count
// in at its gate through hardware shared memory, and the last arriver
// sends one upward message that starts the inter-SSMP protocol. A
// barrier embeds it, so combine's Arrive is the barrier's, and keeps
// only the protocol that runs from combined on. The combine stage is
// the upward message's receiver.
type combine struct {
	env   *Env
	id    int
	label string // the upward message's label
	tag   string // the last arriver's trace event
	to    int    // the upward message's destination, or -1 for each SSMP's representative
	up    combiner
	gates []gate // each gate is touched only by its own SSMP
}

// combiner is the inter-SSMP protocol a combine stage feeds.
type combiner interface {
	// combined runs at the upward message's destination once every
	// processor of SSMP s has arrived.
	combined(s int, at sim.Time)
}

// newCombine builds the stage for barrier id. The upward message goes
// to processor to, or to each SSMP's representative if to < 0.
func newCombine(env *Env, id int, label, tag string, to int, up combiner) combine {
	return combine{env: env, id: id, label: label, tag: tag, to: to, up: up, gates: make([]gate, env.NSSMP())}
}

// Arrive implements Barrier: count in at the SSMP's gate; the last
// arriver sends the SSMP upward; every arriver parks until the
// protocol's release reaches its gate.
func (c *combine) Arrive(p *sim.Proc) {
	e := c.env
	s := e.SSMPOf(p.ID)
	if last, when := c.gates[s].arrive(p, e.ClusterSize()); last {
		if e.Tracing() { // an SSMP or processor past 255 would box onto the heap
			e.EmitBarrier(when, p.ID, c.id, c.tag, "ssmp=%d proc=%d", s, p.ID)
		}
		to := c.to
		if to < 0 {
			to = e.RepProc(s, c.id)
		}
		e.ChargeBarrier(p, e.SendCost())
		e.Send(c.label, c.id, p.ID, to, when, int64(s), e.BarrierOp(), c, 0, args{a: s})
	}
	e.ParkBarrier(p)
}

// deliver runs the upward message from SSMP a.a, the stage's only kind.
func (c *combine) deliver(_ uint8, a args, at sim.Time) { c.up.combined(a.a, at) }

// gate is one SSMP's combining node.
type gate struct {
	count   int
	waiting []*sim.Proc
	// maxClock is the latest virtual arrival time this episode. The
	// upward step is timestamped with it: under direct execution a
	// run-ahead processor can arrive first in engine order with a
	// far-future clock, and the step must not depart before every local
	// arrival's virtual time.
	maxClock sim.Time
}

// arrive registers p and reports whether p completed the SSMP (and if
// so, the virtual time the SSMP's upward step may depart).
func (g *gate) arrive(p *sim.Proc, csize int) (last bool, when sim.Time) {
	g.count++
	if p.Clock() > g.maxClock {
		g.maxClock = p.Clock()
	}
	g.waiting = append(g.waiting, p)
	if g.count < csize {
		return false, 0
	}
	when = g.maxClock
	g.count, g.maxClock = 0, 0
	return true, when
}

// release wakes every gated processor, staggered by quantum/4 per
// waiter — the sequential reads of the shared release flag.
func (g *gate) release(at, quantum sim.Time) {
	for i, p := range g.waiting {
		p.Wake(at + sim.Time(i+1)*quantum/4)
	}
	g.waiting = g.waiting[:0]
}

// idle reports whether the gate holds no partial episode.
func (g *gate) idle() bool { return g.count == 0 && len(g.waiting) == 0 }

// procIDs lists the processors' numbers (state dumps).
func procIDs(ps []*sim.Proc) []int {
	var ids []int
	for _, p := range ps {
		ids = append(ids, p.ID)
	}
	return ids
}

// quiesceErrf builds a quiescence-violation error.
func quiesceErrf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	r := 0
	for 1<<r < n {
		r++
	}
	return r
}
