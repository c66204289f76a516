// Package msg is a miniature stand-in for the real internal/msg: just
// the handler-delivering send surface enginectx roots on.
package msg

import "mgs/internal/sim"

type Network struct{}

// Handler is what a delivery calls; Func adapts a literal.
type Handler interface{ Deliver(done sim.Time) }

type Func func(done sim.Time)

func (f Func) Deliver(done sim.Time) { f(done) }

func (n *Network) Send(from, to int, when sim.Time, fn func(done sim.Time)) {
	n.SendTagged(sim.Label{}, from, to, when, Func(fn))
}

func (n *Network) SendTagged(l sim.Label, from, to int, when sim.Time, h Handler) {
	h.Deliver(when)
}
