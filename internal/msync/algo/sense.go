package algo

import (
	"mgs/internal/msg"
	"mgs/internal/sim"
)

// Sense is the sense-reversing central barrier, deliberately flat: no
// SSMP combining at all. Every processor sends its own ARRIVE to the
// barrier's home, which counts to P and answers with one RELEASE per
// processor — 2P messages per episode, most of them inter-SSMP. The
// sense reversal of the spin-lock original (which lets the counter
// reset safely between episodes) appears here as the count rollover:
// arrivals are anonymous, a processor cannot re-arrive before its own
// release, so a plain counter per episode is reorder-safe. This is the
// zoo's baseline showing what the hierarchy buys the other barriers.
type Sense struct{}

// Name implements BarrierAlgo.
func (Sense) Name() string { return "sense" }

// NewBarrier implements BarrierAlgo.
func (Sense) NewBarrier(env *Env, id, home int) Barrier {
	return &senseBarrier{
		env: env, id: id, home: home % env.NProcs(),
		waiting: make([]*sim.Proc, env.NProcs()),
	}
}

// senseBarrier counts at the home; waiting slots live at their own
// processors.
type senseBarrier struct {
	env  *Env
	id   int
	home int

	arrived  int   // home-side handlers only
	episodes int64 // home-side handlers only

	waiting []*sim.Proc // slot i is touched only by processor i's context and its RELEASE handler
}

// Arrive implements Barrier.
func (b *senseBarrier) Arrive(p *sim.Proc) {
	e := b.env
	e.ChargeBarrier(p, e.BarrierOp())
	b.waiting[p.ID] = p
	e.EmitBarrier(p.Clock(), p.ID, b.id, "SNS.ARRIVE", "proc=%d", p.ID)
	e.ChargeBarrier(p, e.SendCost())
	e.Send("SNS.ARRIVE", b.id, p.ID, b.home, p.Clock(), int64(p.ID), e.BarrierOp(),
		msg.Func(func(at sim.Time) { b.onArrive(at) }))
	c0 := p.Clock()
	p.Park() // woken by this processor's RELEASE
	e.BarrierWaited(p, p.Clock()-c0)
}

// onArrive runs at the home: count; the P-th arrival releases everyone.
func (b *senseBarrier) onArrive(at sim.Time) {
	e := b.env
	b.arrived++
	e.EmitBarrier(at, -1, b.id, "SNS.COUNT", "arrived=%d/%d", b.arrived, e.NProcs())
	if b.arrived < e.NProcs() {
		return
	}
	b.arrived = 0
	b.episodes++
	for i := 0; i < e.NProcs(); i++ {
		i := i
		e.Send("SNS.RELEASE", b.id, b.home, i, at, int64(i), e.BarrierOp(),
			msg.Func(func(at2 sim.Time) { b.onRelease(i, at2) }))
	}
}

// onRelease runs at processor i: wake it.
func (b *senseBarrier) onRelease(i int, at sim.Time) {
	p := b.waiting[i]
	if p == nil {
		return
	}
	b.waiting[i] = nil
	p.Wake(at + b.env.BarrierOp()/4)
}

// Episodes implements Barrier.
func (b *senseBarrier) Episodes() int64 { return b.episodes }

// Dump implements State.
func (b *senseBarrier) Dump(f func(format string, args ...any)) {
	var ws []int
	for i, p := range b.waiting {
		if p != nil {
			ws = append(ws, i)
		}
	}
	f("barrier=%d algo=sense home=%d arrived=%d waiting=%v", b.id, b.home, b.arrived, ws)
}

// Quiescent implements State.
func (b *senseBarrier) Quiescent() error {
	if b.arrived != 0 {
		return quiesceErrf("barrier %d (sense): %d arrivals uncounted", b.id, b.arrived)
	}
	for i, p := range b.waiting {
		if p != nil {
			return quiesceErrf("barrier %d (sense): proc %d still parked", b.id, i)
		}
	}
	return nil
}
