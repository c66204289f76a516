package msg

import (
	"fmt"

	"mgs/internal/fault"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// Reliable transport over a faulty inter-SSMP network (extension).
//
// The paper emulates the inter-SSMP LAN as a perfect fixed-delay wire
// (§4.2.3). AttachFault replaces that wire, for inter-SSMP messages
// only, with a lossy one driven by a deterministic fault.Plan — drops,
// duplicates, delays — and the recovery machinery a real LAN forces:
//
//   - every logical message carries a per-(sender, receiver) sequence
//     number;
//   - the receiving NIC acknowledges each arriving copy before handler
//     dispatch (acks are themselves subject to loss);
//   - the sender sets a retransmission timer per attempt, doubling the
//     timeout up to a cap (all in simulated cycles via the event
//     engine), and charges the timer-interrupt work to itself;
//   - the receiver suppresses duplicate deliveries with a sliding
//     sequence window, so the protocol engines above (Local Client,
//     Remote Client, Server) each process a message exactly once and
//     stay correct under replay.
//
// Handlers therefore still run at most once per logical message; what
// the faults change is *when* — a message can now arrive arbitrarily
// late relative to its siblings, which is precisely the reordering the
// MGS protocol must (and does) tolerate.
//
// Intra-SSMP messages model Alewife's hardware mesh and stay perfectly
// reliable; only the LAN between SSMPs misbehaves.

// chanKey names a directed transport channel between two processors.
type chanKey struct{ from, to int }

// chanState is one channel's sequence bookkeeping.
type chanState struct {
	nextSeq int64 // sender: next sequence number to assign

	// Receiver-side sliding window: every seq <= contig has been
	// delivered; beyond holds delivered seqs past the contiguous
	// prefix (gaps opened by retransmission lag). Lookup-only maps —
	// never ranged — so determinism is preserved.
	contig int64
	beyond map[int64]bool
}

// seen reports whether seq was already delivered on this channel.
func (cs *chanState) seen(seq int64) bool {
	return seq <= cs.contig || cs.beyond[seq]
}

// mark records delivery of seq, advancing the contiguous prefix and
// compacting the gap set.
func (cs *chanState) mark(seq int64) {
	if seq != cs.contig+1 {
		cs.beyond[seq] = true
		return
	}
	cs.contig++
	for cs.beyond[cs.contig+1] {
		cs.contig++
		delete(cs.beyond, cs.contig)
	}
}

// pending is one logical message in flight through the faulty LAN.
type pending struct {
	id        uint64
	key       chanKey
	seq       int64
	bytes     int
	extra     sim.Time
	h         Handler
	stream    fault.Stream // sender-side fate draws (drop/dup/delay)
	ackStream fault.Stream // receiver-side fate draws (ack loss)
	acked     bool
	attempts  int
	rto       sim.Time // timeout for the attempt in flight
	firstEst  sim.Time // fault-free arrival estimate of attempt 0
}

// injector sits between Network.Send and handler delivery, applying the
// fault plan and the recovery protocol. All state changes happen in
// engine context, so the machinery is deterministic by construction —
// message ids and fate streams key off channel coordinates and
// per-channel sequence numbers, never off a global dispatch-order
// counter, so a message's fates do not depend on how channels
// interleave.
type injector struct {
	net   *Network
	plan  fault.Plan
	fs    *stats.Fault
	chans map[chanKey]*chanState
}

// AttachFault interposes the fault-injecting reliable transport on all
// inter-SSMP messages, recording its accounting in fs (which must not
// be nil — the harness passes &Collector.Fault).
//
// An empty plan detaches: the transport elides sequence numbers, acks,
// and timers entirely, making the run byte-identical to one with no
// fault layer. This is the zero-fault equivalence contract the chaos
// harness verifies.
func (n *Network) AttachFault(plan fault.Plan, fs *stats.Fault) {
	if plan.Empty() {
		n.inj = nil
		return
	}
	n.inj = &injector{net: n, plan: plan, fs: fs, chans: make(map[chanKey]*chanState)}
}

// emit publishes one transport fate event on the observability spine.
// The channel coordinates go in the detail; transport events carry
// Proc -1 so the Chrome exporter gives the wire its own track. Detail
// formatting runs only when a sink is attached, and emission charges no
// simulated cycles.
func (in *injector) emit(t sim.Time, name string, from, to int, seq int64, id uint64, format string, args ...any) {
	o := in.net.Obs
	if !o.Tracing() {
		return
	}
	detail := fmt.Sprintf("ch=%d->%d seq=%d id=%d", from, to, seq, id)
	if format != "" {
		detail += " " + fmt.Sprintf(format, args...)
	}
	o.Emit(obs.Event{T: t, Proc: -1, Cat: obs.Transport, Name: name, Detail: detail})
}

// chanOf returns (creating if needed) the channel state for key.
func (in *injector) chanOf(key chanKey) *chanState {
	cs, ok := in.chans[key]
	if !ok {
		cs = &chanState{beyond: make(map[int64]bool)}
		in.chans[key] = cs
	}
	return cs
}

// msgID packs a channel's coordinates and per-channel sequence number
// into the transport's message identity. Processor numbers fit 16 bits
// and no channel carries 2^32 messages, so ids are unique — and, unlike
// a global allocation counter, independent of the order channels
// interleave.
func msgID(key chanKey, seq int64) uint64 {
	return uint64(key.from)<<48 | uint64(key.to)<<32 | uint64(seq)
}

// send enters one logical inter-SSMP message into the reliable
// transport: assign its sequence number, seed its fate streams from the
// plan and message id, and launch attempt zero.
func (in *injector) send(from, to int, when sim.Time, bytes int, extra sim.Time, h Handler) {
	key := chanKey{from, to}
	cs := in.chanOf(key)
	cs.nextSeq++
	id := msgID(key, cs.nextSeq)
	m := &pending{
		id: id, key: key, seq: cs.nextSeq,
		bytes: bytes, extra: extra, h: h,
		// Separate streams per side, so a message's attempt fates do
		// not depend on how many acks were drawn in between. The high
		// bit splits the id space.
		stream:    in.plan.Stream(id),
		ackStream: in.plan.Stream(id | 1<<63),
		rto:       DefaultRetryTimeout,
	}
	in.fs.Messages++
	in.attempt(m, when)
}

// attempt launches one transmission attempt of m departing the sender
// at time when: draw the attempt's fate, schedule the surviving copies,
// and arm the retransmission timer.
func (in *injector) attempt(m *pending, when sim.Time) {
	n := in.net
	m.attempts++
	if m.attempts > DefaultRetryLimit {
		n.eng.Stop(fmt.Errorf(
			"msg: message %d (%d->%d seq %d) undeliverable after %d attempts — loss rate too high for the retry limit",
			m.id, m.key.from, m.key.to, m.seq, DefaultRetryLimit))
		return
	}
	// The fault-free arrival this attempt would have had, computed
	// exactly as the unfaulted path does (topology contention and
	// jitter included; the transport only ever carries inter-SSMP
	// messages).
	arrive := n.interArrive(m.key.from, m.key.to, when, m.bytes) + n.jitter()
	if m.attempts == 1 {
		m.firstEst = arrive
	}
	f := in.plan.NextAttempt(&m.stream)
	switch {
	case f.Drop:
		in.fs.Dropped++
		in.emit(when, "DROP", m.key.from, m.key.to, m.seq, m.id, "attempt=%d", m.attempts)
	default:
		if f.Extra > 0 {
			in.fs.Delayed++
			in.fs.DelayCycles += int64(f.Extra)
			in.emit(when, "DELAY", m.key.from, m.key.to, m.seq, m.id, "extra=%d attempt=%d", f.Extra, m.attempts)
		}
		in.deliverAt(m, arrive+f.Extra)
		if f.Dup {
			in.fs.Duplicated++
			in.emit(when, "DUP", m.key.from, m.key.to, m.seq, m.id, "lag=%d attempt=%d", f.DupExtra, m.attempts)
			in.deliverAt(m, arrive+f.Extra+f.DupExtra)
		}
	}
	// Retransmission timer: a simulated timer interrupt on the sender.
	// If the ack beat it, it is a no-op; otherwise the next attempt
	// departs now with a doubled (capped) timeout.
	fire := when + m.rto
	m.rto *= 2
	if m.rto > DefaultRetryTimeoutMax {
		m.rto = DefaultRetryTimeoutMax
	}
	n.eng.At(fire, func() {
		if m.acked {
			return
		}
		in.fs.Timeouts++
		in.fs.Retransmits++
		in.fs.RetransBytes += int64(m.bytes)
		n.chargeHandler(m.key.from, DefaultRetransmitWork)
		in.emit(fire, "TIMEOUT", m.key.from, m.key.to, m.seq, m.id, "rto=%d -> RETRANSMIT attempt=%d", fire-when, m.attempts+1)
		in.attempt(m, fire)
	})
}

// deliverAt schedules one physical copy of m to reach the receiver at
// time arrive. The first copy past the sequence check dispatches the
// handler as the fault-free path does — a delivery record, entered at
// its arrival stage because this event is the arrival; replays are
// counted and suppressed. Every copy is acknowledged — a duplicate
// usually means the previous ack was lost, so the receiver re-acks.
func (in *injector) deliverAt(m *pending, arrive sim.Time) {
	n := in.net
	n.eng.At(arrive, func() {
		cs := in.chanOf(m.key)
		if cs.seen(m.seq) {
			in.fs.DupSuppressed++
			in.emit(arrive, "DUPDROP", m.key.from, m.key.to, m.seq, m.id, "(already delivered)")
		} else {
			cs.mark(m.seq)
			if arrive > m.firstEst {
				in.fs.RecoveryCycles += int64(arrive - m.firstEst)
			}
			n.newDelivery(m.key.to, arrive, m.extra, m.h).Fire()
		}
		in.sendAck(m, arrive)
	})
}

// sendAck returns the transport-level acknowledgment for one delivered
// copy of m. The ack is generated by the receiving NIC before handler
// dispatch, so it costs no processor occupancy; it rides the same lossy
// LAN, so it can vanish — in which case the sender times out and a
// retransmission (suppressed at the receiver) provokes a fresh ack.
func (in *injector) sendAck(m *pending, at sim.Time) {
	n := in.net
	in.fs.Acks++
	if in.plan.AckDropped(&m.ackStream) {
		in.fs.AckDropped++
		in.emit(at, "ACKDROP", m.key.to, m.key.from, m.seq, m.id, "")
		return
	}
	arrive := at + n.Latency(m.key.to, m.key.from, DefaultAckBytes) + n.jitter()
	n.eng.At(arrive, func() {
		if !m.acked {
			m.acked = true
			in.emit(arrive, "ACK", m.key.to, m.key.from, m.seq, m.id, "")
		}
	})
}
