package apps

import (
	"fmt"
	"math"

	"mgs/internal/harness"
)

// BarnesHut is the hierarchical O(N log N) N-body simulation (§5.2,
// Figure 10): each iteration builds a shared octree in parallel under
// locks (the paper's lock-heavy phase, with plenty of consistency
// traffic and critical-section dilation), computes centers of mass, and
// then every processor walks the shared tree — through pointer
// translation — to compute forces on its bodies.
type BarnesHut struct {
	NBodies int
	Iters   int
	Theta   float64

	body     F64Array // NBodies × bodyWords: pos 0-2, vel 3-5, mass 6
	nodes    I64Array // node pool, nodeWords each (mixed int/float words)
	slabCap  int      // pool nodes per processor
	slabUsed []int    // per-processor allocation cursors (host-side)
}

const (
	bodyWords = 8
	// node layout: 0-7 children (node index + 1, 0 = null),
	// 8 body index + 1 (0 = none), 9 mass, 10-12 center of mass.
	nodeWords = 16
	bhSpan    = 16.0 // root cube side
)

const (
	bhCellLock = 1 // + second-level cell index (0..63)
	// The top two tree levels are prebuilt each iteration, so inserts
	// descend lock-free to a second-level cell and serialize only with
	// inserts into the same 1/64th of space (the contention-relieving
	// modification the paper describes adopting from SPLASH-2).
	bhPrebuilt = 1 + 8 + 64 // root + level-1 + level-2 nodes
)

// Name implements harness.App.
func (b *BarnesHut) Name() string { return "barnes-hut" }

// bhBody returns body i's deterministic initial state. Positions are
// distinct lattice points with index-dependent jitter.
func bhBody(i int) (pos, vel [3]float64, mass float64) {
	for d := 0; d < 3; d++ {
		pos[d] = float64((i*(5+2*d)+d*7)%31)/31.0*14.0 + 0.5 + float64(i%17)/41.0 + float64(d)*0.013
		vel[d] = float64((i*13+d*19)%17-8) / 400.0
	}
	return pos, vel, 1.0 + float64(i%4)*0.25
}

// Setup allocates bodies (homed with their owners) and the node pool.
func (b *BarnesHut) Setup(m *harness.Machine) {
	perPage := m.Cfg.PageSize / (bodyWords * 8)
	b.body = F64Array{
		Base: m.AllocHomed(b.NBodies*bodyWords*8, func(page int) int { return blockOwner(page*perPage, b.NBodies, m.Cfg.P) }),
		N:    b.NBodies * bodyWords,
	}
	for i := 0; i < b.NBodies; i++ {
		pos, vel, mass := bhBody(i)
		for d := 0; d < 3; d++ {
			b.body.Set(m, i*bodyWords+d, pos[d])
			b.body.Set(m, i*bodyWords+3+d, vel[d])
		}
		b.body.Set(m, i*bodyWords+6, mass)
	}
	// Worst case: a chain of internal nodes per body; 16× bodies is
	// generous for jittered positions. Each processor allocates from
	// its own page-aligned slab, homed in its own memory.
	b.slabCap = (16*b.NBodies/m.Cfg.P + 16) &^ 7
	b.slabUsed = make([]int, m.Cfg.P)
	total := bhPrebuilt + m.Cfg.P*b.slabCap
	nodesPerPage := m.Cfg.PageSize / (nodeWords * 8)
	b.nodes = I64Array{
		Base: m.AllocHomed(total*nodeWords*8, func(page int) int {
			n := page * nodesPerPage
			if n < bhPrebuilt {
				return 0
			}
			return (n - bhPrebuilt) / b.slabCap
		}),
		N: total * nodeWords,
	}
}

// node field helpers (all pointer-translated: tree walks chase
// pointers, paper §4.2.1).
func (b *BarnesHut) child(c *harness.Ctx, n, o int) int64 {
	return c.LoadI64Ptr(b.nodes.At(n*nodeWords + o))
}
func (b *BarnesHut) setChild(c *harness.Ctx, n, o int, v int64) {
	c.StoreI64Ptr(b.nodes.At(n*nodeWords+o), v)
}
func (b *BarnesHut) nodeBody(c *harness.Ctx, n int) int64 {
	return c.LoadI64Ptr(b.nodes.At(n*nodeWords + 8))
}
func (b *BarnesHut) setNodeBody(c *harness.Ctx, n int, v int64) {
	c.StoreI64Ptr(b.nodes.At(n*nodeWords+8), v)
}
func (b *BarnesHut) nodeF(c *harness.Ctx, n, k int) float64 {
	return c.LoadF64Ptr(b.nodes.At(n*nodeWords + 9 + k))
}
func (b *BarnesHut) setNodeF(c *harness.Ctx, n, k int, v float64) {
	c.StoreF64Ptr(b.nodes.At(n*nodeWords+9+k), v)
}

// allocNode grabs a fresh node from the calling processor's own slab of
// the pool and zeroes its links. Per-processor freelists avoid the
// original SPLASH code's centralized allocation lock — the same
// contention-relieving change the paper describes adopting.
func (b *BarnesHut) allocNode(c *harness.Ctx) int {
	n := b.slabBase(c.ID) + b.slabUsed[c.ID]
	b.slabUsed[c.ID]++
	if b.slabUsed[c.ID] > b.slabCap {
		panic("barnes-hut: node slab exhausted")
	}
	c.Compute(20) // bump a processor-private freelist pointer
	for o := 0; o < 9; o++ {
		c.StoreI64Ptr(b.nodes.At(n*nodeWords+o), 0)
	}
	return n
}

// slabBase is the first pool index of processor id's slab (after the
// prebuilt nodes).
func (b *BarnesHut) slabBase(id int) int { return bhPrebuilt + id*b.slabCap }

// octant returns which child cube of (center, half) holds p, and that
// cube's geometry.
func octant(p, center [3]float64, half float64) (int, [3]float64, float64) {
	o := 0
	var nc [3]float64
	q := half / 2
	for d := 0; d < 3; d++ {
		if p[d] >= center[d] {
			o |= 1 << d
			nc[d] = center[d] + q
		} else {
			nc[d] = center[d] - q
		}
	}
	return o, nc, q
}

func (b *BarnesHut) loadBodyPos(c *harness.Ctx, i int) [3]float64 {
	return [3]float64{
		b.body.Load(c, i*bodyWords),
		b.body.Load(c, i*bodyWords+1),
		b.body.Load(c, i*bodyWords+2),
	}
}

// insert places body i into the tree. The prebuilt top levels are
// read-only during the build, so the descent is lock-free until the
// second-level cell, whose lock serializes inserts into that subcube;
// node allocation has its own lock.
func (b *BarnesHut) insert(c *harness.Ctx, i int) {
	root := [3]float64{bhSpan / 2, bhSpan / 2, bhSpan / 2}
	p := b.loadBodyPos(c, i)
	o1, c1, h1 := octant(p, root, bhSpan/2)
	o2, center, half := octant(p, c1, h1)
	flop(c, 12)
	cell := o1*8 + o2
	c.Acquire(bhCellLock + cell)
	defer c.Release(bhCellLock + cell)

	cur := int64(9 + cell) // the prebuilt level-2 cell node
	var o int
	o, center, half = octant(p, center, half)
	for {
		ch := b.child(c, int(cur), o)
		flop(c, 6)
		if ch == 0 {
			leaf := b.allocNode(c)
			b.setNodeBody(c, leaf, int64(i)+1)
			b.setChild(c, int(cur), o, int64(leaf)+1)
			return
		}
		n := int(ch - 1)
		if other := b.nodeBody(c, n); other != 0 {
			// Leaf: split until the two bodies separate.
			op := b.loadBodyPos(c, int(other-1))
			b.setNodeBody(c, n, 0)
			for {
				oo, _, _ := octant(op, center, half)
				no, nc2, nh2 := octant(p, center, half)
				flop(c, 12)
				if oo != no {
					la := b.allocNode(c)
					b.setNodeBody(c, la, other)
					b.setChild(c, n, oo, int64(la)+1)
					lb := b.allocNode(c)
					b.setNodeBody(c, lb, int64(i)+1)
					b.setChild(c, n, no, int64(lb)+1)
					return
				}
				// Same octant: chain another internal node.
				in := b.allocNode(c)
				b.setChild(c, n, no, int64(in)+1)
				n = in
				center, half = nc2, nh2
			}
		}
		cur = ch - 1
		o, center, half = octant(p, center, half)
	}
}

// prebuild resets the pool and lays out the fixed top two tree levels:
// root (node 0), level-1 nodes 1..8, level-2 cell nodes 9..72.
func (b *BarnesHut) prebuild(c *harness.Ctx) {
	zero := func(n int) {
		for o := 0; o < 9; o++ {
			c.StoreI64Ptr(b.nodes.At(n*nodeWords+o), 0)
		}
	}
	zero(0)
	for o1 := 0; o1 < 8; o1++ {
		l1 := 1 + o1
		zero(l1)
		c.StoreI64Ptr(b.nodes.At(0*nodeWords+o1), int64(l1)+1)
		for o2 := 0; o2 < 8; o2++ {
			l2 := 9 + o1*8 + o2
			zero(l2)
			c.StoreI64Ptr(b.nodes.At(l1*nodeWords+o2), int64(l2)+1)
		}
	}
}

// com computes mass and center-of-mass bottom-up; processor 0 runs it.
func (b *BarnesHut) com(c *harness.Ctx, n int) (mass float64, pos [3]float64) {
	if bi := b.nodeBody(c, n); bi != 0 {
		i := int(bi - 1)
		mass = b.body.Load(c, i*bodyWords+6)
		pos = b.loadBodyPos(c, i)
	} else {
		for o := 0; o < 8; o++ {
			ch := b.child(c, n, o)
			if ch == 0 {
				continue
			}
			m2, p2 := b.com(c, int(ch-1))
			mass += m2
			for k := 0; k < 3; k++ {
				pos[k] += m2 * p2[k]
			}
			flop(c, 8)
		}
		if mass > 0 {
			for k := 0; k < 3; k++ {
				pos[k] /= mass
			}
		}
	}
	b.setNodeF(c, n, 0, mass)
	for k := 0; k < 3; k++ {
		b.setNodeF(c, n, 1+k, pos[k])
	}
	return mass, pos
}

// accel accumulates the force on position p from subtree n (side s).
func (b *BarnesHut) accel(c *harness.Ctx, n int, self int, p [3]float64, s float64, f *[3]float64) {
	bi := b.nodeBody(c, n)
	if bi != 0 {
		if int(bi-1) == self {
			return
		}
		i := int(bi - 1)
		addForce(p, b.loadBodyPos(c, i), b.body.Load(c, i*bodyWords+6), f)
		flop(c, 300)
		return
	}
	mass := b.nodeF(c, n, 0)
	if mass == 0 {
		return // prebuilt cell with no bodies
	}
	var com [3]float64
	for k := 0; k < 3; k++ {
		com[k] = b.nodeF(c, n, 1+k)
	}
	d2 := 0.0
	for k := 0; k < 3; k++ {
		dd := p[k] - com[k]
		d2 += dd * dd
	}
	flop(c, 60)
	if s*s < b.Theta*b.Theta*d2 {
		addForce(p, com, mass, f)
		flop(c, 300)
		return
	}
	for o := 0; o < 8; o++ {
		if ch := b.child(c, n, o); ch != 0 {
			b.accel(c, int(ch-1), self, p, s/2, f)
		}
	}
}

// addForce applies the softened attraction of (q, mass) on p into f.
func addForce(p, q [3]float64, mass float64, f *[3]float64) {
	d2 := 0.0
	var d [3]float64
	for k := 0; k < 3; k++ {
		d[k] = q[k] - p[k]
		d2 += d[k] * d[k]
	}
	inv := mass / (d2*math.Sqrt(d2) + 0.25)
	for k := 0; k < 3; k++ {
		f[k] += d[k] * inv
	}
}

const bhDT = 5e-3

// Body runs the per-iteration phases: reset, parallel build, COM,
// force+integrate.
func (b *BarnesHut) Body(c *harness.Ctx) {
	lo, hi := blockRange(b.NBodies, c.ID, c.NProcs)
	for it := 0; it < b.Iters; it++ {
		if c.ID == 0 {
			b.prebuild(c)
		}
		b.slabUsed[c.ID] = 0
		c.Barrier(0)
		for i := lo; i < hi; i++ {
			b.insert(c, i)
		}
		c.Barrier(1)
		if c.ID == 0 {
			b.com(c, 0)
		}
		c.Barrier(2)
		// Forces first (into private accumulators), then integrate
		// after a barrier: everyone must read everyone's old positions.
		forces := make([][3]float64, hi-lo)
		for i := lo; i < hi; i++ {
			b.accel(c, 0, i, b.loadBodyPos(c, i), bhSpan, &forces[i-lo])
		}
		c.Barrier(3)
		for i := lo; i < hi; i++ {
			f := forces[i-lo]
			for k := 0; k < 3; k++ {
				v := b.body.Load(c, i*bodyWords+3+k) + bhDT*f[k]
				b.body.Store(c, i*bodyWords+3+k, v)
				b.body.Store(c, i*bodyWords+k, b.body.Load(c, i*bodyWords+k)+bhDT*v)
				flop(c, 4)
			}
		}
		c.Barrier(4)
	}
}

// Verify replays the same algorithm on the host (same tree geometry,
// same traversal order) and compares final body state.
func (b *BarnesHut) Verify(m *harness.Machine) error {
	n := b.NBodies
	pos := make([][3]float64, n)
	vel := make([][3]float64, n)
	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		pos[i], vel[i], mass[i] = bhBody(i)
	}
	for it := 0; it < b.Iters; it++ {
		tree := newHostTree()
		for i := 0; i < n; i++ {
			tree.insert(i, pos)
		}
		tree.com(0, pos, mass)
		forces := make([][3]float64, n)
		for i := 0; i < n; i++ {
			tree.accel(0, i, pos[i], bhSpan, b.Theta, pos, mass, &forces[i])
		}
		for i := 0; i < n; i++ {
			for k := 0; k < 3; k++ {
				vel[i][k] += bhDT * forces[i][k]
				pos[i][k] += bhDT * vel[i][k]
			}
		}
	}
	const tol = 1e-9
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			if got := b.body.Get(m, i*bodyWords+k); !approxEqual(got, pos[i][k], tol) {
				return fmt.Errorf("body %d pos[%d] = %g, want %g", i, k, got, pos[i][k])
			}
		}
	}
	return nil
}

// hostTree is the host-side reference octree (same geometry rules).
type hostTree struct {
	child [][8]int
	body  []int // body index + 1
	mass  []float64
	coms  [][3]float64
	geoC  [][3]float64
	geoH  []float64
}

func newHostTree() *hostTree {
	t := &hostTree{}
	root := [3]float64{bhSpan / 2, bhSpan / 2, bhSpan / 2}
	t.newNode(root, bhSpan/2) // node 0
	// Prebuild the same two fixed levels as the simulated tree so the
	// theta tests see identical node depths.
	for o1 := 0; o1 < 8; o1++ {
		c1, h1 := childCube(root, bhSpan/2, o1)
		l1 := t.newNode(c1, h1)
		t.child[0][o1] = l1 + 1
	}
	for o1 := 0; o1 < 8; o1++ {
		c1, h1 := childCube(root, bhSpan/2, o1)
		for o2 := 0; o2 < 8; o2++ {
			c2, h2 := childCube(c1, h1, o2)
			l2 := t.newNode(c2, h2)
			t.child[1+o1][o2] = l2 + 1
		}
	}
	return t
}

// childCube returns the geometry of cube (center, half)'s o-th octant.
func childCube(center [3]float64, half float64, o int) ([3]float64, float64) {
	q := half / 2
	var nc [3]float64
	for d := 0; d < 3; d++ {
		if o&(1<<d) != 0 {
			nc[d] = center[d] + q
		} else {
			nc[d] = center[d] - q
		}
	}
	return nc, q
}

func (t *hostTree) newNode(center [3]float64, half float64) int {
	t.child = append(t.child, [8]int{})
	t.body = append(t.body, 0)
	t.mass = append(t.mass, 0)
	t.coms = append(t.coms, [3]float64{})
	t.geoC = append(t.geoC, center)
	t.geoH = append(t.geoH, half)
	return len(t.body) - 1
}

func (t *hostTree) insert(i int, pos [][3]float64) {
	p := pos[i]
	o1, c1, h1 := octant(p, t.geoC[0], t.geoH[0])
	o2, c2, h2 := octant(p, c1, h1)
	cur := 9 + o1*8 + o2
	o, center, half := octant(p, c2, h2)
	for {
		ch := t.child[cur][o]
		if ch == 0 {
			leaf := t.newNode(center, half)
			t.body[leaf] = i + 1
			t.child[cur][o] = leaf + 1
			return
		}
		n := ch - 1
		if other := t.body[n]; other != 0 {
			op := pos[other-1]
			t.body[n] = 0
			for {
				oo, _, _ := octant(op, center, half)
				no, nc2, nh2 := octant(p, center, half)
				if oo != no {
					la := t.newNode(center, half)
					t.body[la] = other
					t.child[n][oo] = la + 1
					lb := t.newNode(center, half)
					t.body[lb] = i + 1
					t.child[n][no] = lb + 1
					return
				}
				in := t.newNode(nc2, nh2)
				t.child[n][no] = in + 1
				n = in
				center, half = nc2, nh2
			}
		}
		cur = ch - 1
		o, center, half = octant(p, center, half)
	}
}

func (t *hostTree) comPass(n int, pos [][3]float64, mass []float64) (float64, [3]float64) {
	if bi := t.body[n]; bi != 0 {
		t.mass[n] = mass[bi-1]
		t.coms[n] = pos[bi-1]
		return t.mass[n], t.coms[n]
	}
	var m float64
	var c [3]float64
	for o := 0; o < 8; o++ {
		ch := t.child[n][o]
		if ch == 0 {
			continue
		}
		m2, p2 := t.comPass(ch-1, pos, mass)
		m += m2
		for k := 0; k < 3; k++ {
			c[k] += m2 * p2[k]
		}
	}
	if m > 0 {
		for k := 0; k < 3; k++ {
			c[k] /= m
		}
	}
	t.mass[n] = m
	t.coms[n] = c
	return m, c
}

func (t *hostTree) com(n int, pos [][3]float64, mass []float64) { t.comPass(n, pos, mass) }

func (t *hostTree) accel(n, self int, p [3]float64, s, theta float64, pos [][3]float64, mass []float64, f *[3]float64) {
	if bi := t.body[n]; bi != 0 {
		if bi-1 == self {
			return
		}
		addForce(p, pos[bi-1], mass[bi-1], f)
		return
	}
	if t.mass[n] == 0 {
		return
	}
	d2 := 0.0
	for k := 0; k < 3; k++ {
		dd := p[k] - t.coms[n][k]
		d2 += dd * dd
	}
	if s*s < theta*theta*d2 {
		addForce(p, t.coms[n], t.mass[n], f)
		return
	}
	for o := 0; o < 8; o++ {
		if ch := t.child[n][o]; ch != 0 {
			t.accel(ch-1, self, p, s/2, theta, pos, mass, f)
		}
	}
}
