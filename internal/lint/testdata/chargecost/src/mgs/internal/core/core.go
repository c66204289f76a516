package core

import (
	"mgs/internal/msg"
	"mgs/internal/sim"
)

type Costs struct {
	FaultEntry sim.Time
	RelWork    sim.Time
}

type System struct {
	eng   *sim.Engine
	net   *msg.Network
	costs Costs
	pend  int
}

// Access is exported timed API; it charges directly.
func (s *System) Access(p *sim.Proc, at sim.Time) {
	p.Advance(s.costs.FaultEntry)
}

// onGood charges through a same-package helper.
func (s *System) onGood(p *sim.Proc, at sim.Time) {
	s.bill(p)
}

func (s *System) bill(p *sim.Proc) {
	p.Advance(s.costs.FaultEntry)
}

// onFree updates protocol state but the work it models costs nothing.
func (s *System) onFree(p *sim.Proc, at sim.Time) { // want `onFree is a protocol handler/send path but no path through it charges`
	s.pend++
}

// onRequeue reschedules at the same instant: that is not a charge.
func (s *System) onRequeue(at sim.Time) { // want `onRequeue is a protocol handler/send path but no path through it charges`
	s.eng.At(at, func() {})
}

// onDelay reschedules with an offset: time is charged.
func (s *System) onDelay(at sim.Time) {
	s.eng.At(at+1, func() {})
}

// onAfter charges via the relative scheduler.
func (s *System) onAfter(at sim.Time) {
	s.eng.After(2, func() {})
}

// sendData launches a message: charged inside Network.Send.
func (s *System) sendData(p *sim.Proc, at sim.Time) {
	s.net.Send(0, 1, at, 64, func(done sim.Time) {})
}

// send launches a pooled record with the caller's sizes: the charge is
// the tagged send itself.
func (s *System) send(m *message, at sim.Time, bytes int) {
	s.net.SendTagged("REQ", 0, 1, at, bytes, m)
}

// message is a pooled record; its Deliver dispatches to on* handlers,
// which are audited where they are declared.
type message struct {
	s *System
	p *sim.Proc
}

func (m *message) Deliver(at sim.Time) {
	m.s.onGood(m.p, at)
}

// lazyDone is unexported with no handler prefix: out of scope.
func (s *System) lazyDone(at sim.Time) {
	s.pend--
}
