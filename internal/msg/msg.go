// Package msg models MGS's two communication layers: Alewife-style
// active messages with DMA inside an SSMP, and the emulated LAN between
// SSMPs (paper §4.2.2–§4.2.3).
//
// A message addressed to a processor invokes a handler there. Handlers
// on the same destination processor serialize (the paper's hardware
// contexts make dispatch cheap, but a processor still executes one
// handler at a time), which is what makes a hot home processor — TSP's
// work-queue home, Water's statistics home — a genuine bottleneck in
// the simulation, as in the paper.
//
// Inter-SSMP messages pay a fixed extra delay by default, exactly like
// the paper's emulation: "all messages between logical SSMPs are queued
// at the sending processor and a timer interrupt is set for some amount
// of delay". Contention in the LAN is not modeled under that default
// (nor was it in MGS); the pluggable Topology interface (topology.go)
// adds routed, link-contended interconnects — Mesh2D and Tiered —
// for scaling studies beyond the paper's 32 processors.
package msg

import (
	"mgs/internal/mem"
	"mgs/internal/obs"
	"mgs/internal/sim"
)

// Costs parameterizes message timing, in cycles.
type Costs struct {
	SendOverhead  sim.Time // occupancy to compose and launch a message
	HandlerEntry  sim.Time // dispatch into a handler at the receiver
	PerHop        sim.Time // per mesh hop inside an SSMP
	BytesPerCycle int      // DMA bandwidth (bytes moved per cycle)
	InterDelay    sim.Time // fixed inter-SSMP latency (the LAN knob)
	InterOverhead sim.Time // software protocol stack per inter-SSMP message

	// Topology selects the inter-SSMP interconnect (topology.go). Nil
	// means the paper's Uniform fixed-delay LAN. InterOverhead is always
	// paid as the software stack cost on top of whatever the topology
	// charges.
	Topology Topology

	// Jitter, when positive, adds a deterministic pseudo-random extra
	// delay in [0, Jitter) to every message, seeded by JitterSeed.
	// Runs stay reproducible, but message arrival orders get shuffled —
	// an adversarial mode for hunting protocol ordering races. The
	// paper's LAN model has no contention; jitter also stands in for a
	// loaded network.
	Jitter     sim.Time
	JitterSeed uint64
}

// The reliable transport's parameters (reliable.go), consulted only
// while a fault plan is attached.
const (
	// DefaultRetryTimeout is the initial retransmission timeout: how
	// long the sender waits for a transport ack before resending. Each
	// further attempt doubles it, capped at DefaultRetryTimeoutMax. It
	// covers the worst uncontended inter-SSMP round trip of the
	// calibrated cost table (two page payloads plus control traffic,
	// both ways) with slack for handler queueing at a hot home
	// processor.
	DefaultRetryTimeout    sim.Time = 20_000
	DefaultRetryTimeoutMax sim.Time = 160_000
	// DefaultRetransmitWork is the sender-side timer-interrupt
	// occupancy charged per retransmission (the driver re-queues the
	// DMA).
	DefaultRetransmitWork sim.Time = 200
	// DefaultAckBytes sizes the transport-level acknowledgment packet.
	DefaultAckBytes = 8
	// DefaultRetryLimit aborts the run (Engine.Stop) if one message
	// needs more than this many attempts — a diagnostic backstop, not a
	// protocol feature: with independent per-attempt fates and any loss
	// rate below 100% the limit is unreachable in practice.
	DefaultRetryLimit = 30
)

// Counters tallies traffic.
type Counters struct {
	IntraMsgs, InterMsgs   int64
	IntraBytes, InterBytes int64
	// LinkWaitCycles accumulates link queueing delay on contended
	// topologies (Mesh2D, Tiered; always 0 under Uniform).
	LinkWaitCycles int64
}

// Network routes messages between the processors of one machine.
type Network struct {
	eng   *sim.Engine
	procs []*sim.Proc
	sites []site // by processor
	costs Costs
	rng   uint64 // xorshift state for deterministic jitter

	// topo is the sized inter-SSMP topology; occ is its per-machine
	// link-contention state (mutated only on the inter send path).
	topo Topology
	occ  Occupancy

	// inj, when non-nil, interposes the fault-injecting reliable
	// transport on every inter-SSMP message (reliable.go). Nil on the
	// fault-free path, which is byte-identical to a Network that never
	// heard of faults.
	inj *injector

	// OnHandler, if set, is called for every cycle of handler work
	// charged to a processor (protocol-time attribution).
	OnHandler func(proc int, cycles sim.Time)

	// Obs is the observability spine. Transport fate events — drops,
	// duplicates, delays, timeouts, retransmissions, acks — publish on
	// it as Cat Transport with Proc -1 (they belong to the wire, not a
	// processor), interleaving with the protocol and sync streams into
	// one virtual-time-ordered event log.
	Obs *obs.Observer

	Counters Counters

	records mem.Slab[delivery]  // fresh delivery records
	free    mem.Pool[*delivery] // completed ones, for newDelivery
}

// site is where a processor sits: its SSMP and its (x, y) in the SSMP's
// square mesh. NewNetwork tables them so that no send divides by the
// cluster size or the mesh width.
type site struct{ ssmp, x, y int32 }

// NewNetwork builds the network for nprocs processors grouped into SSMPs
// of csize each. procs[i] must be the simulated processor i.
func NewNetwork(eng *sim.Engine, procs []*sim.Proc, csize int, costs Costs) *Network {
	if costs.BytesPerCycle <= 0 {
		costs.BytesPerCycle = 1
	}
	w := 1
	for w*w < csize {
		w++
	}
	seed := costs.JitterSeed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	topo := costs.Topology
	if topo == nil {
		topo = NewUniform()
	}
	nssmp := (len(procs) + csize - 1) / csize
	if s, ok := topo.(sizer); ok {
		topo = s.sized(nssmp, costs)
	}
	n := &Network{
		eng: eng, procs: procs, sites: make([]site, len(procs)),
		costs: costs, rng: seed, topo: topo,
	}
	for i := range n.sites {
		in := i % csize
		n.sites[i] = site{ssmp: int32(i / csize), x: int32(in % w), y: int32(in / w)}
	}
	n.occ = newOccupancy(&n.Counters.LinkWaitCycles)
	return n
}

// Topology returns the sized inter-SSMP topology in use.
func (n *Network) Topology() Topology { return n.topo }

// jitter returns the next deterministic pseudo-random extra delay.
func (n *Network) jitter() sim.Time {
	if n.costs.Jitter <= 0 {
		return 0
	}
	// xorshift64*
	n.rng ^= n.rng >> 12
	n.rng ^= n.rng << 25
	n.rng ^= n.rng >> 27
	v := n.rng * 0x2545f4914f6cdd1d
	return sim.Time(v % uint64(n.costs.Jitter))
}

// SSMPOf returns the SSMP number of a processor.
func (n *Network) SSMPOf(proc int) int { return int(n.sites[proc].ssmp) }

// hops is the Manhattan distance between two processors of the same SSMP
// laid out in a square mesh.
func (n *Network) hops(a, b int) sim.Time {
	sa, sb := n.sites[a], n.sites[b]
	dx, dy := sa.x-sb.x, sa.y-sb.y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return sim.Time(dx + dy)
}

// Latency returns the wire+transfer latency of a message of the given
// payload from processor `from` to processor `to`, excluding send and
// handler occupancy. For inter-SSMP messages this is the uncontended
// estimate over the topology's route: the software stack cost, the sum
// of link latencies, and one transfer at the route's bottleneck
// bandwidth. Acks and protocol estimates use it; the contended arrival
// path is interArrive.
func (n *Network) Latency(from, to, bytes int) sim.Time {
	if n.SSMPOf(from) == n.SSMPOf(to) {
		xfer := sim.Time(bytes / n.costs.BytesPerCycle)
		return n.hops(from, to)*n.costs.PerHop + xfer
	}
	lat := n.costs.InterOverhead
	minBPC := n.costs.BytesPerCycle
	for _, l := range n.topo.Route(n.SSMPOf(from), n.SSMPOf(to)) {
		lat += l.Latency
		if l.BytesPerCycle > 0 && l.BytesPerCycle < minBPC {
			minBPC = l.BytesPerCycle
		}
	}
	if minBPC <= 0 {
		minBPC = 1
	}
	return lat + sim.Time(bytes/minBPC)
}

// interArrive computes the contended arrival time at `to` of an
// inter-SSMP message leaving `from` at `when`: pay the send overhead
// and software stack cost, then hand the topology the departure so it
// can queue the message across its links.
func (n *Network) interArrive(from, to int, when sim.Time, bytes int) sim.Time {
	depart := when + n.costs.SendOverhead + n.costs.InterOverhead
	return n.topo.Arrive(&n.occ, n.SSMPOf(from), n.SSMPOf(to), depart, bytes)
}

// Handler is what a message runs at its destination: Deliver receives
// the virtual time at which the handler body has completed
// (HandlerEntry plus the sender's extra cycles of handler work). A
// protocol's pooled message record implements it and costs no closure
// per send.
type Handler interface{ Deliver(done sim.Time) }

// Func adapts a plain continuation to Handler. A func value is
// pointer-shaped, so the conversion does not allocate.
type Func func(done sim.Time)

// Deliver calls f.
func (f Func) Deliver(done sim.Time) { f(done) }

// Send delivers an active message: composed at `when` on processor
// `from`, arriving at processor `to` after the wire latency, then
// running `fn` as a handler once the destination processor's handler
// resource is free. fn receives the virtual time at which the handler
// body has completed (HandlerEntry plus extra cycles of handler work).
//
// Send must be called from engine or processor context with when >= the
// caller's current virtual time. The sender is charged SendOverhead of
// occupancy via debt; callers that want the sender's clock to reflect
// the send should also advance it by SendCost.
func (n *Network) Send(from, to int, when sim.Time, bytes int, extra sim.Time, fn func(done sim.Time)) {
	n.SendTagged(sim.Label{}, from, to, when, bytes, extra, Func(fn))
}

// SendTagged is Send for a Handler, with a choice label: while a
// sim.Chooser is armed on the engine (model checking), the delivery
// becomes a choice point the checker can reorder against other labeled
// deliveries. On every normal run — no chooser — AtChoice degrades to
// At and the schedule is identical to Send's. Fault-injected messages
// stay unlabeled: the reliable transport's retransmission timing is
// outside the checker's interleaving model (the checker never arms a
// fault plan).
func (n *Network) SendTagged(l sim.Label, from, to int, when sim.Time, bytes int, extra sim.Time, h Handler) {
	inter := n.SSMPOf(from) != n.SSMPOf(to)
	if inter {
		n.Counters.InterMsgs++
		n.Counters.InterBytes += int64(bytes)
	} else {
		n.Counters.IntraMsgs++
		n.Counters.IntraBytes += int64(bytes)
	}
	if inter && n.inj != nil {
		// Fault-injection mode: the message goes through the reliable
		// transport (sequence number, ack, retransmission) instead of
		// the perfect wire.
		n.inj.send(from, to, when, bytes, extra, h)
		return
	}
	var arrive sim.Time
	if inter {
		arrive = n.interArrive(from, to, when, bytes) + n.jitter()
	} else {
		arrive = when + n.costs.SendOverhead + n.Latency(from, to, bytes) + n.jitter()
	}
	n.eng.AtChoiceHandler(arrive, l, n.newDelivery(to, arrive, extra, h))
}

// delivery is one message reaching its handler, and the sim.Handler of
// both of its events: it fires at arrival, where it queues for the
// destination's handler resource, and again when the handler body has
// completed, where it goes back to the Network's pool and runs h.
// The perfect wire schedules the arrival; the reliable transport fires
// it itself, for the one copy of a message that passes the sequence
// check.
type delivery struct {
	n        *Network
	to       int
	at       sim.Time // scheduled arrival; once handling, the completion time
	extra    sim.Time
	h        Handler
	handling bool // false until the arrival event has fired
}

// newDelivery takes a record off the pool, or carves a fresh one, for a
// message that reaches processor to at time at.
func (n *Network) newDelivery(to int, at, extra sim.Time, h Handler) *delivery {
	d, ok := n.free.Get()
	if !ok {
		d = n.records.New()
	}
	*d = delivery{n: n, to: to, at: at, extra: extra, h: h}
	return d
}

// Fire runs the delivery's next stage.
func (d *delivery) Fire() {
	n := d.n
	if !d.handling {
		// d.at names the scheduled delivery time; a chooser may run
		// this event later, but handler occupancy (HandlerStart) and the
		// engine's At clamp keep every derived time monotone.
		cost := n.costs.HandlerEntry + d.extra
		start := n.procs[d.to].HandlerStart(d.at, cost)
		n.chargeHandler(d.to, cost)
		d.handling, d.at = true, start+cost
		n.eng.AtHandler(d.at, d)
		return
	}
	h, done := d.h, d.at
	d.h, d.handling = nil, false // drop the handler; free before it runs so its own sends reuse d
	n.free.Put(d)
	h.Deliver(done)
}

// Deliveries returns the counts of the pool of delivery records.
func (n *Network) Deliveries() mem.Counts { return n.free.Counts }

// SendCost is the occupancy a sender spends launching one message.
func (n *Network) SendCost() sim.Time { return n.costs.SendOverhead }

// Extend charges additional handler work discovered mid-handler (for
// data-dependent costs such as diff sizes) on processor proc starting at
// time at. It returns the completion time of the extra work.
func (n *Network) Extend(proc int, at, extra sim.Time) sim.Time {
	if extra <= 0 {
		return at
	}
	n.procs[proc].HandlerStart(at, extra)
	n.chargeHandler(proc, extra)
	return at + extra
}

func (n *Network) chargeHandler(proc int, cycles sim.Time) {
	if n.OnHandler != nil {
		n.OnHandler(proc, cycles)
	}
	if !n.procs[proc].Parked() {
		n.procs[proc].AddDebt(cycles)
	}
}
