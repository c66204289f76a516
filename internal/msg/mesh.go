package msg

import "mgs/internal/sim"

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
	return &Mesh2D{w: w, perHop: c.InterDelay / 4, bpc: c.BytesPerCycle}
}

// next returns the node after cur on the X-then-Y dimension-ordered
// path to b (cur != b): one step along X until the columns agree, then
// along Y.
func (m *Mesh2D) next(cur, b int) int {
	switch cx, bx := cur%m.w, b%m.w; {
	case cx < bx:
		return cur + 1
	case cx > bx:
		return cur - 1
	case cur < b:
		return cur + m.w
	}
	return cur - m.w
}

// link is the mesh link from node from to its neighbour to.
func (m *Mesh2D) link(from, to int) Link {
	return Link{From: from, To: to, Latency: m.perHop, BytesPerCycle: m.bpc}
}

// Route returns the directed links a message visits travelling from
// SSMP a to SSMP b under X-then-Y dimension-ordered routing.
func (m *Mesh2D) Route(a, b int) []Link {
	var route []Link
	for cur := a; cur != b; {
		nx := m.next(cur, b)
		route = append(route, m.link(cur, nx))
		cur = nx
	}
	return route
}

// Arrive walks the message hop by hop along Route's path, queueing
// behind earlier traffic on each directed link (store-and-forward), so
// two messages crossing the same link back-to-back see each other.
func (m *Mesh2D) Arrive(occ *Occupancy, a, b int, depart sim.Time, bytes int) sim.Time {
	t := depart
	for cur := a; cur != b; {
		nx := m.next(cur, b)
		t = crossLink(occ, m.link(cur, nx), t, bytes)
		cur = nx
	}
	return t
}
