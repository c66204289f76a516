// Package msg is a miniature stand-in for the real internal/msg: just
// the handler-delivering send surface enginectx roots on.
package msg

import "mgs/internal/sim"

type Network struct{}

func (n *Network) Send(from, to int, when sim.Time, fn func(done sim.Time)) {
	n.SendTagged(sim.Label{}, from, to, when, fn)
}

func (n *Network) SendTagged(l sim.Label, from, to int, when sim.Time, fn func(done sim.Time)) {
	fn(when)
}
