package msg

import (
	"fmt"

	"mgs/internal/sim"
)

// Mesh2D arranges the SSMPs in a near-square 2D mesh with
// dimension-ordered (X-then-Y) routing and deterministic
// store-and-forward contention: each directed link serializes the
// messages that cross it at the configured DMA bandwidth. This answers
// a question the paper leaves open — how sensitive the multigrain
// results are to non-uniform, contended inter-SSMP latency — and backs
// the `mesh` ablation in mgs sweep.
type Mesh2D struct {
	w      int // mesh width (smallest square holding all SSMPs)
	perHop sim.Time
	bpc    int
	nssmp  int
}

// NewMesh2D returns the 2D-mesh spec. The per-hop latency is
// InterDelay/4, as Tiered derives its LAN link latency: at the
// paper's 1000-cycle delay that makes the mean uncontended latency of a
// 6×6 grid (P = 32, C = 1, ~4 hops) comparable to the uniform LAN's.
func NewMesh2D() *Mesh2D { return &Mesh2D{} }

func (m *Mesh2D) sized(nssmp int, c Costs) Topology {
	w := 1
	for w*w < nssmp {
		w++
	}
	bpc := c.BytesPerCycle
	if bpc <= 0 {
		bpc = 1
	}
	return &Mesh2D{w: w, perHop: c.InterDelay / 4, bpc: bpc, nssmp: nssmp}
}

// Route returns the directed links a message visits travelling from
// SSMP a to SSMP b under X-then-Y dimension-ordered routing.
func (m *Mesh2D) Route(a, b int) []Link {
	if a == b {
		return nil
	}
	w := m.w
	ax, ay := a%w, a/w
	bx, by := b%w, b/w
	var route []Link
	at := func(x, y int) int { return y*w + x }
	mk := func(from, to int) Link {
		return Link{From: from, To: to, Latency: m.perHop, BytesPerCycle: m.bpc}
	}
	cur := a
	for ax != bx {
		step := 1
		if bx < ax {
			step = -1
		}
		ax += step
		next := at(ax, ay)
		route = append(route, mk(cur, next))
		cur = next
	}
	for ay != by {
		step := 1
		if by < ay {
			step = -1
		}
		ay += step
		next := at(ax, ay)
		route = append(route, mk(cur, next))
		cur = next
	}
	return route
}

// Arrive walks the message through its route, queueing behind earlier
// traffic on each directed link (store-and-forward), so two messages
// crossing the same link back-to-back see each other.
func (m *Mesh2D) Arrive(occ *Occupancy, a, b int, depart sim.Time, bytes int) sim.Time {
	if a == b {
		return depart
	}
	return crossRoute(occ, m.Route(a, b), depart, bytes)
}

func (m *Mesh2D) Describe() string {
	return fmt.Sprintf("mesh2d(%dx%d,perhop=%d)", m.w, m.w, m.perHop)
}
