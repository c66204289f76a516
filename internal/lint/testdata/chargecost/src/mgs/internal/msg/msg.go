package msg

import "mgs/internal/sim"

type Costs struct {
	SendOverhead   sim.Time
	HandlerEntry   sim.Time
	RetransmitWork sim.Time
}

type Network struct {
	eng   *sim.Engine
	procs []*sim.Proc
	costs Costs
}

// Send charges launch overhead and handler entry: the canonical path.
func (n *Network) Send(from, to int, when sim.Time, bytes int, fn func(done sim.Time)) {
	arrive := when + n.costs.SendOverhead
	n.eng.At(arrive, func() {
		cost := n.costs.HandlerEntry
		start := n.procs[to].HandlerStart(arrive, cost)
		fn(start + cost)
	})
}

// SendTagged is Send for a Handler, with a label: a charge like Send.
func (n *Network) SendTagged(label string, from, to int, when sim.Time, bytes int, h Handler) {
	n.Send(from, to, when, bytes, h.Deliver)
}

// Handler is a message's handler; Func adapts a literal. Deliver runs
// only from a delivery, which has charged the handler entry: it is not
// a send path to audit.
type Handler interface{ Deliver(done sim.Time) }

type Func func(done sim.Time)

func (f Func) Deliver(done sim.Time) { f(done) }

// SendFree delivers without charging anything.
func (n *Network) SendFree(from, to int, when sim.Time, fn func(done sim.Time)) { // want `SendFree is a protocol handler/send path but no path through it charges`
	n.eng.At(when, func() { fn(when) })
}

// The reliable-transport surface (reliable.go): retransmission is real
// protocol-engine work — the sender's NIC handler rebuilds and relaunches
// the message — so timeout paths must charge like any other send path.

// onRetryTimeout is the charged retransmit path: the timer fires, the
// sender is billed the recovery work, and the attempt relaunches.
func (n *Network) onRetryTimeout(fire sim.Time, from, to int, fn func(done sim.Time)) {
	work := n.costs.RetransmitWork
	n.procs[from].AddDebt(work)
	n.Send(from, to, fire, 0, fn)
}

// onRetryTimeoutFree re-delivers the payload when the timer fires but
// bills nobody: the retransmission executes for free, deflating exactly
// the loss-recovery overhead the fault experiments measure.
func (n *Network) onRetryTimeoutFree(fire sim.Time, to int, fn func(done sim.Time)) { // want `onRetryTimeoutFree is a protocol handler/send path but no path through it charges`
	n.eng.At(fire, func() { fn(fire) })
}

// Arrive computes a landing time from link state: a cost producer. It
// returns sim.Time, so the charge is its result — landed by whichever
// caller schedules against it — and the analyzer must not demand a
// charge inside.
func (n *Network) Arrive(depart sim.Time, bytes int) sim.Time {
	return depart + sim.Time(bytes)
}
