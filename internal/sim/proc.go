package sim

import (
	"fmt"
	"iter"
)

// procState describes what a Proc is doing, for deadlock diagnostics.
type procState string

const (
	stateNew     procState = "new"
	stateRunning procState = "running"
	stateSleep   procState = "sleeping"
	stateParked  procState = "parked"
	stateDone    procState = "done"
)

// Proc is a simulated processor: a coroutine with a local virtual clock.
//
// The body function runs on its own stack, but only while the engine
// has switched to it; any call that yields (Sleep, Park) suspends the
// body until the engine resumes it. Advance, Sleep, Yield and Park
// belong to the body: called from anywhere else — an event callback,
// another Proc's body, or before the body has started — they panic.
// Wake, AddDebt and HandlerStart are the engine-context methods, for
// event callbacks. A Proc is the Handler of its own resume events.
type Proc struct {
	// ID is the processor number, unique within an engine.
	ID int

	eng   *Engine
	clock Time
	debt  Time // handler preemption time owed, folded in on next Advance
	body  func(p *Proc)
	state procState

	// next switches into the body and returns when it suspends or
	// finishes; suspend switches back out. Both are nil until the first
	// resume creates the coroutine, so a processor that never runs costs
	// no stack.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	resumes int64 // times Fire switched into the body

	// busyUntil serializes protocol handlers that run "on" this
	// processor: a handler arriving at time t starts at
	// max(t, busyUntil). Managed by HandlerStart.
	busyUntil Time

	wakeAt Time // valid while parked, once Wake is called
}

// NewProc creates a processor whose body starts executing at time start.
// The body receives the Proc so it can advance its clock and yield.
func (e *Engine) NewProc(id int, start Time, body func(p *Proc)) *Proc {
	p := &Proc{ID: id, eng: e, clock: start, body: body, state: stateNew}
	e.procs = append(e.procs, p)
	e.AtHandler(start, p)
	return p
}

// Fire resumes the processor: it switches to the body and returns once
// the body has suspended again or finished. A panic in the body unwinds
// through here into Engine.Run's caller.
func (p *Proc) Fire() {
	if p.next == nil {
		p.next, _ = iter.Pull(p.run)
	}
	p.resumes++
	p.next()
}

// run is the coroutine's sequence function: the whole life of the body.
func (p *Proc) run(suspend func(struct{}) bool) {
	p.suspend = suspend
	p.state = stateRunning
	p.body(p)
	p.state = stateDone
}

// Clock returns the processor's local virtual time. It can run ahead of
// Engine.Now between yields (direct execution).
func (p *Proc) Clock() Time { return p.clock }

// Advance moves the local clock forward by d cycles of local work,
// folding in any interrupt debt accumulated by protocol handlers that
// preempted this processor. It does not yield. It returns the total
// cycles actually charged (d plus debt). It panics outside the body.
func (p *Proc) Advance(d Time) Time {
	if p.state != stateRunning {
		panic("sim: Proc.Advance outside the proc's own body")
	}
	d += p.debt
	p.debt = 0
	p.clock += d
	return d
}

// AddDebt charges d cycles of handler preemption to this processor; the
// charge lands on the next Advance. Safe to call from engine context.
func (p *Proc) AddDebt(d Time) { p.debt += d }

// Parked reports whether the processor is blocked in Park. Handlers use
// this to avoid charging preemption debt to a processor that is idle
// waiting (the wait itself absorbs the handler time).
func (p *Proc) Parked() bool { return p.state == stateParked }

// HandlerStart reserves the processor's protocol-handler resource for a
// handler arriving at time t that takes cost cycles. It returns the time
// the handler begins executing (>= t) and advances busyUntil. Call from
// engine context.
func (p *Proc) HandlerStart(t, cost Time) Time {
	start := t
	if p.busyUntil > start {
		start = p.busyUntil
	}
	p.busyUntil = start + cost
	return start
}

// Sleep advances the local clock by d (plus any debt) and yields so
// that other processors and events with earlier timestamps run first.
// Use it for long local operations whose duration is known up front. It
// panics outside the body.
//
// When nothing is due by the new clock — the engine is not stopped, the
// clock is neither behind Now nor past the horizon, and the queue is
// empty or its earliest event is strictly later — the processor's
// resume would be the strict queue minimum, dispatched at once. Sleep
// then carries it out in place, without queueing it or switching
// coroutines: it takes the resume's seq and moves Now to the clock,
// exactly as the dispatched resume would (Engine.Elided counts these).
// A tie keeps the switch, so an event already queued at the clock still
// runs first; a resume past the horizon is queued, so Run stops there.
func (p *Proc) Sleep(d Time) {
	if p.state != stateRunning {
		panic("sim: Proc.Sleep outside the proc's own body")
	}
	p.clock += d + p.debt
	p.debt = 0
	e := p.eng
	if !e.stopped && p.clock >= e.now && p.clock <= e.horizon && (e.queue.Len() == 0 || e.queue.min().t > p.clock) {
		e.seq++
		e.now = p.clock
		e.elided++
		return
	}
	p.state = stateSleep
	e.AtHandler(p.clock, p)
	p.block()
}

// Yield gives the engine a chance to run events scheduled at or before
// the processor's current clock, without advancing the clock. Like any
// Sleep it returns without a switch when nothing is due by then. It
// panics outside the body.
func (p *Proc) Yield() {
	if p.state != stateRunning {
		panic("sim: Proc.Yield outside the proc's own body")
	}
	p.Sleep(0)
}

// Park blocks the processor until some event calls Wake. On return the
// local clock has advanced to at least the wake time. The caller is
// responsible for ensuring a Wake will eventually arrive; the engine
// reports a deadlock otherwise. It panics outside the body.
func (p *Proc) Park() {
	if p.state != stateRunning {
		panic("sim: Proc.Park outside the proc's own body")
	}
	p.state = stateParked
	p.block()
	if p.wakeAt > p.clock {
		p.clock = p.wakeAt
	}
}

// Wake unparks the processor at time t (or the processor's own clock if
// later). It must be called from engine context, and only while the
// processor is parked.
func (p *Proc) Wake(t Time) {
	if p.state != stateParked {
		panic(fmt.Sprintf("sim: Wake of proc %d in state %s", p.ID, p.state))
	}
	p.wakeAt = t
	p.eng.AtHandler(t, p)
}

// block switches back to the engine and returns when it resumes p.
func (p *Proc) block() {
	p.suspend(struct{}{})
	p.state = stateRunning
}
