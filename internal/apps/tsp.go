package apps

import (
	"fmt"

	"mgs/internal/harness"
	"mgs/internal/sim"
	"mgs/internal/vm"
)

// TSP solves a small traveling-salesman instance by branch and bound
// with a centralized work queue, reproducing the paper's pathology
// (Figure 8): the queue lock serializes everything and dilates under
// software coherence, and the contiguously-allocated 56-byte path
// elements false-share pages badly.
type TSP struct {
	NCities int
	Depth   int // enqueue partial tours shorter than this; DFS below

	dist    I64Array // NCities × NCities distance matrix
	queue   I64Array // path elements, 7 words each
	qTop    vm.Addr  // shared stack top
	inWork  vm.Addr  // elements popped but not fully expanded
	best    vm.Addr  // best complete tour cost so far
	minEdge int64    // for the lower bound (host-computed constant)
}

const tspWords = 7 // 56 bytes per path element, as in the paper

const (
	tspQueueLock = 0
	tspBestLock  = 1
	tspBarrier   = 0
)

// Name implements harness.App.
func (t *TSP) Name() string { return "tsp" }

// Dist is the deterministic symmetric distance function.
func (t *TSP) Dist(i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	return int64((i*9+j*17)%23) + 1
}

// Setup allocates the distance matrix, queue, and globals, and seeds
// the queue with the tour {0}.
func (t *TSP) Setup(m *harness.Machine) {
	n := t.NCities
	t.dist = AllocI64(m, n*n)
	t.minEdge = 1 << 62
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := t.Dist(i, j)
			t.dist.Set(m, i*n+j, d)
			if i != j && d < t.minEdge {
				t.minEdge = d
			}
		}
	}
	// Generous queue bound: breadth-first frontier below Depth.
	maxQ := 1
	width := 1
	for d := 1; d < t.Depth; d++ {
		width *= n - d
		maxQ += width
	}
	t.queue = AllocI64(m, maxQ*tspWords)
	// Globals are packed on one page — shared-scalar false sharing.
	t.qTop = m.AllocPacked(8, 8)
	t.inWork = m.AllocPacked(8, 8)
	t.best = m.AllocPacked(8, 8)
	// Seed the bound with a greedy nearest-neighbour tour (the usual
	// B&B warm start); without it, parallel searches explore wildly
	// different node counts depending on how fast the first complete
	// tours propagate.
	m.SetI64(t.best, t.greedyBound())
	// Seed element: tour {0}, cost 0.
	t.writeElemBackdoor(m, 0, 0, 1, 1, [4]int64{0, 0, 0, 0})
	m.SetI64(t.qTop, 1)
}

// path element layout: [cost, length, visitedMask, cities0..3] with 4
// cities packed per word.
func (t *TSP) writeElemBackdoor(m *harness.Machine, idx int, cost, length, mask int64, cities [4]int64) {
	base := idx * tspWords
	t.queue.Set(m, base, cost)
	t.queue.Set(m, base+1, length)
	t.queue.Set(m, base+2, mask)
	for w := 0; w < 4; w++ {
		t.queue.Set(m, base+3+w, cities[w])
	}
}

type tspElem struct {
	cost, length, mask int64
	cities             [16]int8
}

func (t *TSP) readElem(c *harness.Ctx, idx int) tspElem {
	base := idx * tspWords
	var e tspElem
	e.cost = t.queue.Load(c, base)
	e.length = t.queue.Load(c, base+1)
	e.mask = t.queue.Load(c, base+2)
	for w := 0; w < 4; w++ {
		packed := t.queue.Load(c, base+3+w)
		for k := 0; k < 4; k++ {
			e.cities[w*4+k] = int8(packed >> (8 * k))
		}
	}
	return e
}

func (t *TSP) writeElem(c *harness.Ctx, idx int, e tspElem) {
	base := idx * tspWords
	t.queue.Store(c, base, e.cost)
	t.queue.Store(c, base+1, e.length)
	t.queue.Store(c, base+2, e.mask)
	for w := 0; w < 4; w++ {
		var packed int64
		for k := 0; k < 4; k++ {
			packed |= int64(uint8(e.cities[w*4+k])) << (8 * k)
		}
		t.queue.Store(c, base+3+w, packed)
	}
}

// Body is the worker loop: pop a partial tour, expand one level (or
// depth-first solve below the cutoff), push children, repeat until the
// queue drains and no work is outstanding.
func (t *TSP) Body(c *harness.Ctx) {
	wait := 400
	pend := int64(0) // deferred inWork decrement, folded into the next CS
	for {
		// Peek without the lock (the usual idle-worker pattern): a
		// stale read just means another poll; queue pushes invalidate
		// reader copies, so emptiness is eventually observed. Under
		// lazy release consistency nothing invalidates a racy reader,
		// so the backoff paths below revalidate through the lock once
		// the backoff ceiling is reached.
		if c.LoadI64(t.qTop) == 0 {
			if pend > 0 {
				c.Acquire(tspQueueLock)
				c.StoreI64(t.inWork, c.LoadI64(t.inWork)-pend)
				c.Release(tspQueueLock)
				pend = 0
				continue
			}
			if c.LoadI64(t.inWork) == 0 {
				// Confirm termination under the lock.
				c.Acquire(tspQueueLock)
				top := c.LoadI64(t.qTop)
				out := c.LoadI64(t.inWork)
				c.Release(tspQueueLock)
				if top == 0 && out == 0 {
					break
				}
				c.Compute(sim.Time(wait))
				c.Proc.Yield()
				if wait < 50_000 {
					wait *= 2
				}
				continue
			}
			c.Compute(sim.Time(wait))
			c.Proc.Yield() // let queued events and peers run
			if wait < 50_000 {
				wait *= 2
			} else if c.Machine().Cfg.Variant.LazyRelease {
				// Backoff ceiling under lazy release consistency:
				// nothing ever invalidates a racy reader, so refresh
				// the view through an acquire or this loop never sees
				// the queue drain. Under the eager protocol pushes
				// invalidate our copy and this would be pure contention.
				c.Acquire(tspQueueLock)
				c.Release(tspQueueLock)
			}
			continue
		}
		c.Acquire(tspQueueLock)
		top := c.LoadI64(t.qTop)
		if top == 0 {
			// Lost the race for the element (thundering herd): back
			// off like an empty poll instead of re-rushing the lock.
			c.Release(tspQueueLock)
			c.Compute(sim.Time(wait))
			c.Proc.Yield()
			if wait < 50_000 {
				wait *= 2
			}
			continue
		}
		wait = 400
		e := t.readElem(c, int(top-1))
		c.StoreI64(t.qTop, top-1)
		c.StoreI64(t.inWork, c.LoadI64(t.inWork)+1-pend)
		pend = 0
		c.Release(tspQueueLock)

		t.expand(c, e)
		pend = 1
	}
	c.Barrier(tspBarrier)
}

// expand grows a partial tour by one city, enqueueing children above
// the DFS cutoff and solving below it.
func (t *TSP) expand(c *harness.Ctx, e tspElem) {
	c.Machine().Stats.Count("app.tsp.nodes", 1)
	n := t.NCities
	if int(e.length) == n {
		last := int(e.cities[e.length-1])
		t.offerBest(c, e.cost+t.dist.Load(c, last*n+0))
		return
	}
	bound := c.LoadI64(t.best) // racy read: pruning hint only
	last := int(e.cities[e.length-1])
	var batch []tspElem
	for city := 1; city < n; city++ {
		if e.mask&(1<<uint(city)) != 0 {
			continue
		}
		cost := e.cost + t.dist.Load(c, last*n+city)
		flop(c, 300)
		remaining := int64(t.NCities) - e.length
		if cost+remaining*t.minEdge >= bound {
			continue // prune
		}
		child := e
		child.cost = cost
		child.mask |= 1 << uint(city)
		child.cities[child.length] = int8(city)
		child.length++
		if int(child.length) >= t.Depth {
			t.dfs(c, child)
			continue
		}
		batch = append(batch, child)
	}
	if len(batch) > 0 {
		// One critical section per expansion, not per child.
		c.Acquire(tspQueueLock)
		top := c.LoadI64(t.qTop)
		for k, ch := range batch {
			t.writeElem(c, int(top)+k, ch)
		}
		c.StoreI64(t.qTop, top+int64(len(batch)))
		c.Release(tspQueueLock)
	}
}

// dfs finishes a partial tour depth-first without touching the queue.
func (t *TSP) dfs(c *harness.Ctx, e tspElem) {
	c.Machine().Stats.Count("app.tsp.nodes", 1)
	n := t.NCities
	if int(e.length) == n {
		last := int(e.cities[e.length-1])
		t.offerBest(c, e.cost+t.dist.Load(c, last*n+0))
		return
	}
	bound := c.LoadI64(t.best)
	last := int(e.cities[e.length-1])
	for city := 1; city < n; city++ {
		if e.mask&(1<<uint(city)) != 0 {
			continue
		}
		cost := e.cost + t.dist.Load(c, last*n+city)
		flop(c, 300)
		remaining := int64(n) - e.length
		if cost+remaining*t.minEdge >= bound {
			continue
		}
		child := e
		child.cost = cost
		child.mask |= 1 << uint(city)
		child.cities[child.length] = int8(city)
		child.length++
		t.dfs(c, child)
	}
}

// offerBest updates the global best tour cost under its lock.
func (t *TSP) offerBest(c *harness.Ctx, cost int64) {
	c.Acquire(tspBestLock)
	if cost < c.LoadI64(t.best) {
		c.StoreI64(t.best, cost)
	}
	c.Release(tspBestLock)
}

// greedyBound computes a nearest-neighbour tour cost on the host.
func (t *TSP) greedyBound() int64 {
	n := t.NCities
	visited := make([]bool, n)
	visited[0] = true
	cur, total := 0, int64(0)
	for k := 1; k < n; k++ {
		best, bestD := -1, int64(1)<<62
		for j := 1; j < n; j++ {
			if !visited[j] && t.Dist(cur, j) < bestD {
				best, bestD = j, t.Dist(cur, j)
			}
		}
		visited[best] = true
		total += bestD
		cur = best
	}
	return total + t.Dist(cur, 0)
}

// Verify compares the best tour the run found with the optimum.
func (t *TSP) Verify(m *harness.Machine) error {
	if got, want := m.GetI64(t.best), t.optimalTour(); got != want {
		return fmt.Errorf("best tour = %d, want %d", got, want)
	}
	return nil
}

// optimalTour returns the cost of the shortest tour from city 0 through
// every city and back, computed on the host by Held-Karp dynamic
// programming over (cities visited, last city): O(2^n·n²) steps where
// enumerating the tours takes (n-1)!.
func (t *TSP) optimalTour() int64 {
	n := t.NCities
	if n == 1 {
		return t.Dist(0, 0)
	}
	// City j+1 is bit j of a visited set; city 0 is the fixed start.
	// path[set*m+j] is the shortest path from city 0 through exactly
	// the cities in set, ending at city j+1.
	const inf = int64(1) << 62
	m := n - 1
	path := make([]int64, m<<m)
	for i := range path {
		path[i] = inf
	}
	for j := range m {
		path[(1<<j)*m+j] = t.Dist(0, j+1)
	}
	for set := 1; set < 1<<m; set++ {
		for j := range m {
			cur := path[set*m+j]
			if cur == inf {
				continue
			}
			for k := range m {
				if set&(1<<k) != 0 {
					continue
				}
				if c, next := cur+t.Dist(j+1, k+1), &path[(set|1<<k)*m+k]; c < *next {
					*next = c
				}
			}
		}
	}
	best := inf
	for j := range m {
		if c := path[(1<<m-1)*m+j] + t.Dist(j+1, 0); c < best {
			best = c
		}
	}
	return best
}
