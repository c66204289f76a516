package sim

// event is a scheduled Handler. Events with equal times fire in
// insertion order (seq), which makes runs fully deterministic. It is
// four words on purpose: the compiler keeps a struct of up to four in
// registers, and copies a larger one through memory on every Push and
// Pop (measured: dispatch 9 ns → 40 ns with a fifth word).
type event struct {
	t   Time
	seq uint64
	h   Handler
}

// eventQueue is a binary min-heap ordered by (t, seq). It is hand-rolled
// rather than built on container/heap to avoid interface boxing on the
// hottest path in the simulator.
type eventQueue struct {
	ev   []event
	peak int // largest len(ev) reached
}

func (q *eventQueue) Len() int { return len(q.ev) }

func (q *eventQueue) Push(e event) {
	q.ev = append(q.ev, e)
	if len(q.ev) > q.peak {
		q.peak = len(q.ev)
	}
	q.siftUp(len(q.ev) - 1)
}

func (q *eventQueue) Pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // clear so dispatched handlers become collectable
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) less(i, j int) bool {
	a, b := &q.ev[i], &q.ev[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (q *eventQueue) siftDown(i int) bool {
	n := len(q.ev)
	moved := false
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return moved
		}
		q.ev[i], q.ev[smallest] = q.ev[smallest], q.ev[i]
		i = smallest
		moved = true
	}
}

func (q *eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// removeAt extracts the event at heap position i, restoring heap order.
// Used only by the chooser path; Pop remains the hot-path extraction.
func (q *eventQueue) removeAt(i int) event {
	out := q.ev[i]
	n := len(q.ev) - 1
	q.ev[i] = q.ev[n]
	q.ev[n] = event{} // clear so dispatched handlers become collectable
	q.ev = q.ev[:n]
	if i < n {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	return out
}
