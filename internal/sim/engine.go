// Package sim provides a deterministic discrete-event simulation engine
// with cooperatively scheduled processor coroutines.
//
// The engine owns virtual time. Simulated processors (Proc) run real Go
// code on their own stacks, as runtime coroutines (iter.Pull): the
// engine resumes one by a direct switch and gets control back when it
// yields, so exactly one of them — the engine dispatching events, or
// one Proc — ever runs, and the Go scheduler is never asked to pick.
// Runs are therefore bit-for-bit reproducible: there is no reliance on
// the Go scheduler, wall-clock time, or map iteration order anywhere on
// the simulated path.
//
// Two kinds of activity exist:
//
//   - Events: engine-context callbacks scheduled at absolute virtual
//     times (Engine.At / Engine.After, or Engine.AtHandler for a record
//     that is its own callback). Events must not block; they are how
//     protocol handlers, message deliveries, and timer expiries run.
//   - Procs: coroutines with a local clock. A Proc advances its clock
//     cheaply for local work (Advance) and yields to the engine only
//     when it must interact with global ordering (Sleep, Park). These
//     methods panic when called from anywhere but the Proc's own body:
//     the engine dispatches an event only while every Proc is
//     suspended, so an event that calls them is caught at once.
//
// Ties in virtual time break by scheduling order, so the simulation is
// a total order over events.
//
// The one dispatcher takes two fast paths, each selected from the
// queue minimum it already holds, and neither changes that order. A
// Sleep whose resume would be the strict queue minimum returns without
// queueing the resume or switching coroutines (Engine.Elided): it
// advances seq and Now exactly as the dispatched resume would have. And
// an event pushed ahead of everything already queued waits in a
// one-event front slot instead of entering the heap (Engine.FrontHits).
package sim

import (
	"fmt"
	"sort"
)

// Time is virtual time in processor clock cycles.
type Time int64

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; call NewEngine.
type Engine struct {
	now        Time
	seq        uint64
	queue      eventQueue
	dispatched int64 // events Run took off the queue
	elided     int64 // resumes Sleep carried out without queueing them

	procs   []*Proc
	stopped bool
	stopErr error

	// chooser, when non-nil, arbitrates ready labeled events (model
	// checking; see chooser.go). choiceIdx/choiceBuf are its reusable
	// scratch buffers.
	chooser   Chooser
	choiceIdx []int
	choiceBuf []Choice
}

// Handler is what an event runs when it is dispatched. A record that
// implements it — a Proc for its own resumes, a message delivery — is
// scheduled with AtHandler and costs no closure.
type Handler interface{ Fire() }

// Func adapts a plain callback to Handler. A func value is
// pointer-shaped, so the conversion does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time: the timestamp of the event being
// dispatched, or of the last dispatched event.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run in engine context at absolute time t. If t is
// in the past it runs at the current time (still strictly after all
// already-scheduled events for that time).
func (e *Engine) At(t Time, fn func()) { e.AtHandler(t, Func(fn)) }

// AtHandler is At for a Handler.
func (e *Engine) AtHandler(t Time, h Handler) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.Push(event{t: t, seq: e.seq, h: h})
}

// AtOn is At; the processor argument is ignored. It survives only
// because the frozen benchmark driver (bench/drivers.go) calls it — new
// code calls At.
func (e *Engine) AtOn(_ *Proc, t Time, fn func()) { e.At(t, fn) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Dispatched reports the number of events carried out so far: those
// Run dispatched from the queue plus the processor resumes that Sleep
// carried out in place (Elided) — an engine-activity gauge for the
// observability spine, and the same number whichever path a resume
// took. Host-side bookkeeping only; it never influences virtual time.
func (e *Engine) Dispatched() int64 { return e.dispatched + e.elided }

// Elided reports the number of Sleeps (and so Yields) that returned
// without a coroutine switch, because their resume would have been the
// strict queue minimum.
func (e *Engine) Elided() int64 { return e.elided }

// FrontHits reports the number of events dispatched from the queue's
// front slot, without entering the heap.
func (e *Engine) FrontHits() int64 { return e.queue.frontHits }

// Switches reports the number of times a processor has been resumed:
// each is one coroutine switch into its body and one back out.
func (e *Engine) Switches() int64 {
	var n int64
	for _, p := range e.procs {
		n += p.resumes
	}
	return n
}

// PeakQueue reports the largest number of events that were pending at
// once.
func (e *Engine) PeakQueue() int { return e.queue.peak }

// Stop aborts the run after the current event completes. Run returns
// err.
func (e *Engine) Stop(err error) {
	e.stopped = true
	e.stopErr = err
}

// Run dispatches events in time order until the queue drains or Stop is
// called. It returns an error if any Proc is still parked or unfinished
// when the queue drains (a simulated deadlock), with a diagnostic
// listing the stuck processors.
func (e *Engine) Run() error {
	for e.queue.Len() > 0 && !e.stopped {
		ev := e.next()
		// A chooser may dispatch a later-scheduled delivery ahead of an
		// earlier one; virtual time stays monotone (the clamp is a no-op
		// on the nil-chooser path, where ev is always the queue minimum).
		if ev.t > e.now {
			e.now = ev.t
		}
		e.dispatched++
		ev.h.Fire()
	}
	if e.stopped {
		return e.stopErr
	}
	var stuck []string
	for _, p := range e.procs {
		if p.state != stateDone {
			stuck = append(stuck, fmt.Sprintf("proc %d (%s, clock %d)", p.ID, p.state, p.clock))
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock, %d processors stuck: %v", len(stuck), stuck)
	}
	return nil
}
