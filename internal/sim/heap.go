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

// before reports whether a dispatches ahead of b: earlier time, then
// earlier seq.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQueue is the pending events in (t, seq) order: a one-event front
// slot ahead of a binary min-heap. A pushed event that orders before
// the heap minimum takes the front slot (displacing the one there into
// the heap), so the common "schedule the next thing, then dispatch it"
// pair costs no sift at all; everything else goes through the heap,
// whose sifts move a hole and copy each event once per level. The front
// event, when present, always orders before every heap event, so Pop
// takes it first. The heap is hand-rolled rather than built on
// container/heap to avoid interface boxing on the hottest path in the
// simulator.
type eventQueue struct {
	front     event
	full      bool // front holds an event
	ev        []event
	peak      int   // largest Len reached
	frontHits int64 // events popped from the front slot
}

// Len is the number of pending events.
func (q *eventQueue) Len() int {
	if q.full {
		return len(q.ev) + 1
	}
	return len(q.ev)
}

// min returns the event Pop would return. The queue must not be empty.
func (q *eventQueue) min() *event {
	if q.full {
		return &q.front
	}
	return &q.ev[0]
}

func (q *eventQueue) Push(e event) {
	switch {
	case q.full:
		if e.before(&q.front) {
			q.front, e = e, q.front
		}
		q.heapPush(e)
	case len(q.ev) == 0 || e.before(&q.ev[0]):
		q.front, q.full = e, true
	default:
		q.heapPush(e)
	}
	if n := q.Len(); n > q.peak {
		q.peak = n
	}
}

func (q *eventQueue) Pop() event {
	if q.full {
		e := q.front
		q.front, q.full = event{}, false // clear so the handler becomes collectable
		q.frontHits++
		return e
	}
	top := q.ev[0]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // clear so dispatched handlers become collectable
	q.ev = q.ev[:n]
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// flush moves the front event into the heap, so that q.ev holds every
// pending event. The chooser path flushes before it walks q.ev.
func (q *eventQueue) flush() {
	if q.full {
		e := q.front
		q.front, q.full = event{}, false
		q.heapPush(e)
	}
}

func (q *eventQueue) heapPush(e event) {
	q.ev = append(q.ev, e)
	q.siftUp(len(q.ev)-1, e)
}

// siftDown fills the hole at i with x: smaller children move up into
// the hole until x orders before both children of the hole. It reports
// whether x landed below i.
func (q *eventQueue) siftDown(i int, x event) bool {
	ev := q.ev
	n := len(ev)
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && ev[r].before(&ev[c]) {
			c = r
		}
		if !ev[c].before(&x) {
			break
		}
		ev[i] = ev[c]
		i = c
	}
	ev[i] = x
	return i > start
}

// siftUp fills the hole at i with x: larger parents move down into the
// hole until x's parent orders before x.
func (q *eventQueue) siftUp(i int, x event) {
	ev := q.ev
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = x
}

// removeAt extracts the event at heap position i, restoring heap order.
// Used only by the chooser path, after flush; Pop remains the hot-path
// extraction.
func (q *eventQueue) removeAt(i int) event {
	out := q.ev[i]
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev[n] = event{} // clear so dispatched handlers become collectable
	q.ev = q.ev[:n]
	if i < n && !q.siftDown(i, last) {
		q.siftUp(i, last)
	}
	return out
}
