package sim

// event is a scheduled callback. Events with equal times fire in
// insertion order (seq), which makes runs fully deterministic. label is
// nil except for choice points scheduled through AtChoice while a
// Chooser is installed — a pointer so the hot-path struct stays small.
type event struct {
	t     Time
	seq   uint64
	fn    func()
	label *Label
}

// eventQueue is a binary min-heap ordered by (t, seq). It is hand-rolled
// rather than built on container/heap to avoid interface boxing on the
// hottest path in the simulator.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) Len() int { return len(q.ev) }

func (q *eventQueue) Push(e event) {
	q.ev = append(q.ev, e)
	q.siftUp(len(q.ev) - 1)
}

func (q *eventQueue) Pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // clear so dispatched closures become collectable
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(0)
	}
	return top
}

// Peek returns the earliest event without removing it. It must not be
// called on an empty queue.
func (q *eventQueue) Peek() event { return q.ev[0] }

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
	q.ev[n] = event{} // clear so dispatched closures become collectable
	q.ev = q.ev[:n]
	if i < n {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	return out
}
