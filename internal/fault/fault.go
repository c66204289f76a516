// Package fault provides deterministic fault plans for the inter-SSMP
// network. MGS inherits Alewife's perfectly reliable mesh, but the
// paper's own pitch (§1) is DSSMPs assembled from commodity clusters
// over LANs — substrates that lose, duplicate, reorder, and delay
// messages. A Plan describes such misbehaviour as a schedule that is a
// pure function of (plan seed, message id): every fate decision for a
// message draws from a splitmix64 stream seeded by exactly those two
// values, so a faulted run composes with the deterministic event engine
// and is bit-for-bit reproducible. No host clock, no process-global
// randomness — mgslint's nowalltime analyzer enforces this (the package
// is on the deterministic allow-list in internal/lint).
//
// The package only decides fates. The transport that acts on them —
// sequence numbers, acks, timeout-driven retransmission, duplicate
// suppression — lives in internal/msg (reliable.go).
package fault

import (
	"fmt"

	"mgs/internal/sim"
)

// Plan is a deterministic fault schedule for inter-SSMP messages. The
// zero value injects nothing (Empty reports true) and is the identity:
// a transport given an empty plan must behave byte-identically to one
// with no fault layer at all.
//
// Rates are in basis points (parts per 10,000), so DropBP = 300 loses
// 3% of transmission attempts. Each retransmission attempt rolls its
// own independent fate, so any DropBP < 10000 terminates.
type Plan struct {
	// Seed selects the pseudo-random schedule. Two runs with the same
	// seed (and the same deterministic simulation) see identical faults.
	Seed uint64
	// DropBP is the probability, in basis points, that a transmission
	// attempt (payload or transport ack) is lost in the network.
	DropBP int
	// DupBP is the probability that a delivered attempt also arrives a
	// second time, later.
	DupBP int
	// DelayBP is the probability that a delivered attempt is held in
	// the network for extra cycles beyond its fault-free latency.
	DelayBP int
	// MaxDelay bounds the injected extra latency: delayed attempts (and
	// duplicate copies) draw uniformly from [1, MaxDelay] cycles. Zero
	// means DefaultMaxDelay.
	MaxDelay sim.Time
}

// DefaultMaxDelay is the extra-latency bound used when Plan.MaxDelay is
// zero: a few multiples of the paper's 1000-cycle inter-SSMP LAN delay,
// enough to reorder messages across protocol phases.
const DefaultMaxDelay sim.Time = 2000

// Empty reports whether the plan injects no faults at all.
func (p Plan) Empty() bool {
	return p.DropBP <= 0 && p.DupBP <= 0 && p.DelayBP <= 0
}

// Validate reports the first reason the plan cannot run: a rate outside
// [0, 10000] basis points, a drop rate of 10000 (no attempt would ever
// arrive, so no retry limit terminates), or a negative delay bound.
func (p Plan) Validate() error {
	switch {
	case min(p.DropBP, p.DupBP, p.DelayBP) < 0 || max(p.DropBP, p.DupBP, p.DelayBP) > 10000:
		return fmt.Errorf("bad fault rates drop=%d dup=%d delay=%d: want 0 to 10000 basis points each", p.DropBP, p.DupBP, p.DelayBP)
	case p.DropBP == 10000:
		return fmt.Errorf("bad fault drop rate 10000: no transmission attempt could ever arrive")
	case p.MaxDelay < 0:
		return fmt.Errorf("bad fault max delay %d: want a non-negative cycle count (0 selects %d)", p.MaxDelay, DefaultMaxDelay)
	}
	return nil
}

// maxDelay resolves the configured delay bound.
func (p Plan) maxDelay() sim.Time {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return DefaultMaxDelay
}

// Stream is the fate stream of one message: a splitmix64 sequence
// seeded purely by (plan seed, message id). The transport draws every
// decision about the message — per-attempt loss, duplication, delay,
// ack loss — from its stream in event order, which the engine makes
// deterministic.
type Stream struct{ x uint64 }

// Stream returns the fate stream for the message with the given id.
func (p Plan) Stream(msgID uint64) Stream {
	return Stream{x: mix64(p.Seed ^ mix64(msgID+0x9e3779b97f4a7c15))}
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so that
// consecutive ids (and seed^id collisions) decorrelate.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next advances the stream one draw.
func (s *Stream) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	return mix64(s.x)
}

// roll draws one event with probability bp/10000.
func (s *Stream) roll(bp int) bool {
	if bp <= 0 {
		return false
	}
	return s.next()%10000 < uint64(bp)
}

// delay draws an extra latency in [1, max].
func (s *Stream) delay(max sim.Time) sim.Time {
	if max <= 0 {
		return 0
	}
	return 1 + sim.Time(s.next()%uint64(max))
}

// AttemptFate is the network's treatment of one transmission attempt.
type AttemptFate struct {
	// Drop: the attempt vanishes; nothing arrives.
	Drop bool
	// Dup: a second copy of the attempt arrives DupExtra cycles after
	// the first (duplicate deliveries exercise the receiver's sequence
	// check).
	Dup bool
	// Extra is added latency on the (first) delivered copy; zero for an
	// on-time delivery.
	Extra sim.Time
	// DupExtra is the duplicate copy's additional lag behind the first.
	DupExtra sim.Time
}

// NextAttempt draws the fate of one transmission attempt from the
// message's stream.
func (p Plan) NextAttempt(s *Stream) AttemptFate {
	var f AttemptFate
	f.Drop = s.roll(p.DropBP)
	if f.Drop {
		return f
	}
	f.Dup = s.roll(p.DupBP)
	if s.roll(p.DelayBP) {
		f.Extra = s.delay(p.maxDelay())
	}
	if f.Dup {
		f.DupExtra = s.delay(p.maxDelay())
	}
	return f
}

// AckDropped draws whether a transport-level acknowledgment is lost.
// Acks share the payload loss rate: an asymmetric LAN is not modeled.
func (p Plan) AckDropped(s *Stream) bool {
	return s.roll(p.DropBP)
}
