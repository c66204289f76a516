package msg

import (
	"fmt"

	"mgs/internal/sim"
)

// Pluggable inter-SSMP topologies (extension).
//
// MGS emulated the LAN between SSMPs as a uniform fixed delay with no
// contention (§4.2.3). That stays the default, but at p=256/1024 the
// interconnect is where DSSMP design decisions bite, so the network is
// now a first-class Topology: a routing function over directed links,
// each with its own latency and bandwidth, plus deterministic
// store-and-forward contention tracked per link. Three implementations
// ship — Uniform (the paper's LAN), Mesh2D, and Tiered (LAN sites
// joined by thin, slow WAN links).

// Link is one directed edge of an inter-SSMP topology. Node numbers are
// SSMP ids in [0, nssmp); switch nodes use ids >= nssmp. A Link carries
// its own wire latency and serialization bandwidth, so heterogeneous
// topologies (thin WAN trunks beside fast site switches) fall out of
// routing.
type Link struct {
	From, To      int
	Latency       sim.Time // wire latency across this link
	BytesPerCycle int      // serialization bandwidth of this link
}

// Occupancy models deterministic store-and-forward contention: each
// directed link serializes the messages that cross it. The map is
// lookup-only (never ranged), so determinism is preserved.
type Occupancy struct {
	busy map[Link]sim.Time
	wait *int64 // accumulates queueing delay (Counters.LinkWaitCycles)
}

func newOccupancy(wait *int64) Occupancy {
	return Occupancy{busy: make(map[Link]sim.Time), wait: wait}
}

// Cross moves one message across l: it departs at t, waits behind
// earlier traffic if the link is busy, occupies the link for xfer
// cycles (store-and-forward), and lands at the far side after the
// link's wire latency. Returns the arrival time at l.To.
func (o *Occupancy) Cross(l Link, t, xfer sim.Time) sim.Time {
	if busy := o.busy[l]; busy > t {
		*o.wait += int64(busy - t)
		t = busy
	}
	o.busy[l] = t + xfer
	return t + l.Latency + xfer
}

// Topology is the pluggable inter-SSMP interconnect. a and b are SSMP
// numbers. Implementations must be deterministic and, once sized, are
// immutable — all mutable contention state lives in the Occupancy the
// caller owns, so one spec can be shared across sweep workers.
type Topology interface {
	// Route returns the directed links a message visits from SSMP a to
	// SSMP b (nil when a == b, or when the topology has no modeled
	// links between them).
	Route(a, b int) []Link
	// Arrive returns the arrival time at SSMP b of a message departing
	// SSMP a at depart (send overhead and the software stack cost
	// already paid), updating occ with the links it occupies, in
	// Route's order. It builds no route: it runs once per inter-SSMP
	// message.
	Arrive(occ *Occupancy, a, b int, depart sim.Time, bytes int) sim.Time
}

// sizer is implemented by topology specs that must be resolved against
// the machine shape (SSMP count) and cost table before use. NewNetwork
// calls it; the returned Topology is the immutable sized instance.
type sizer interface {
	sized(nssmp int, c Costs) Topology
}

// crossLink moves a message of bytes across l, arriving at its near end at
// t, paying the link's queueing and serialization. Each link charges
// at least one cycle of serialization so back-to-back messages on the
// same link always see each other.
func crossLink(occ *Occupancy, l Link, t sim.Time, bytes int) sim.Time {
	xfer := sim.Time(bytes / max(l.BytesPerCycle, 1))
	return occ.Cross(l, t, max(xfer, 1))
}

// ByName resolves a topology flag value ("uniform", "mesh", "tiered")
// to an unsized spec with default parameters.
func ByName(name string) (Topology, error) {
	switch name {
	case "", "uniform":
		return NewUniform(), nil
	case "mesh":
		return NewMesh2D(), nil
	case "tiered":
		return NewTiered(0), nil
	}
	return nil, fmt.Errorf("msg: unknown topology %q (want uniform, mesh, or tiered)", name)
}

// TopologyNames lists the ByName spellings, for flag help text.
func TopologyNames() []string { return []string{"uniform", "mesh", "tiered"} }

// Uniform is the paper's emulated LAN: every inter-SSMP message pays
// the same fixed InterDelay plus DMA transfer, with no contention.
type Uniform struct {
	delay sim.Time
	bpc   int
}

// NewUniform returns the uniform fixed-delay LAN spec (the default).
func NewUniform() *Uniform { return &Uniform{} }

func (u *Uniform) sized(nssmp int, c Costs) Topology {
	return &Uniform{delay: c.InterDelay, bpc: c.BytesPerCycle}
}

func (u *Uniform) Route(a, b int) []Link {
	if a == b {
		return nil
	}
	return []Link{{From: a, To: b, Latency: u.delay, BytesPerCycle: u.bpc}}
}

func (u *Uniform) Arrive(_ *Occupancy, a, b int, depart sim.Time, bytes int) sim.Time {
	if a == b {
		return depart
	}
	bpc := u.bpc
	if bpc <= 0 {
		bpc = 1
	}
	return depart + u.delay + sim.Time(bytes/bpc)
}

// Tiered models a heterogeneous LAN/WAN machine: SSMPs cluster into
// sites joined by a fast local switch; sites talk over thin, slow WAN
// trunks. One WAN link per site pair direction, so cross-site traffic
// serializes hard — the regime where the paper's uniform-LAN
// conclusions are most at risk.
type Tiered struct {
	site   int // SSMPs per site
	nssmp  int
	lanLat sim.Time
	wanLat sim.Time
	lanBPC int
	wanBPC int
}

// NewTiered returns a tiered LAN/WAN spec. siteSize <= 0 means the
// default 8 SSMPs per site.
func NewTiered(siteSize int) *Tiered { return &Tiered{site: siteSize} }

func (t *Tiered) sized(nssmp int, c Costs) Topology {
	site := t.site
	if site <= 0 {
		site = 8
	}
	lanLat := c.InterDelay / 4
	if lanLat < 1 {
		lanLat = 1
	}
	wanLat := 10 * c.InterDelay
	if wanLat < lanLat {
		wanLat = lanLat
	}
	lanBPC := c.BytesPerCycle
	wanBPC := lanBPC / 4
	if wanBPC < 1 {
		wanBPC = 1
	}
	return &Tiered{site: site, nssmp: nssmp, lanLat: lanLat, wanLat: wanLat, lanBPC: lanBPC, wanBPC: wanBPC}
}

// switchOf returns the node id of a site's local switch.
func (t *Tiered) switchOf(site int) int { return t.nssmp + site }

// lan is the site link from node from to node to.
func (t *Tiered) lan(from, to int) Link {
	return Link{From: from, To: to, Latency: t.lanLat, BytesPerCycle: t.lanBPC}
}

// wan is the trunk from site switch swA to site switch swB.
func (t *Tiered) wan(swA, swB int) Link {
	return Link{From: swA, To: swB, Latency: t.wanLat, BytesPerCycle: t.wanBPC}
}

func (t *Tiered) Route(a, b int) []Link {
	if a == b {
		return nil
	}
	swA, swB := t.switchOf(a/t.site), t.switchOf(b/t.site)
	if swA == swB {
		return []Link{t.lan(a, swA), t.lan(swA, b)}
	}
	return []Link{t.lan(a, swA), t.wan(swA, swB), t.lan(swB, b)}
}

func (t *Tiered) Arrive(occ *Occupancy, a, b int, depart sim.Time, bytes int) sim.Time {
	if a == b {
		return depart
	}
	swA, swB := t.switchOf(a/t.site), t.switchOf(b/t.site)
	at := crossLink(occ, t.lan(a, swA), depart, bytes)
	if swA != swB {
		at = crossLink(occ, t.wan(swA, swB), at, bytes)
	}
	return crossLink(occ, t.lan(swB, b), at, bytes)
}
