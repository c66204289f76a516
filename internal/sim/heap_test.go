package sim

import (
	"sort"
	"testing"
)

// FuzzEventQueue drives the queue with a script of Push, Pop and
// flush+removeAt operations and checks it, after every step, against a
// sorted slice: the same minimum, Len and peak, every popped or removed
// (t, seq), heap order in q.ev, the front-slot hits, and a cleared slot
// behind every extraction. Times are drawn from 0–15 so ties are the
// common case, and the front slot is taken, displaced and flushed along
// the way.
//
// Each script step is two bytes: an opcode (mod 4: 0 and 1 push, 2
// pops, 3 flushes and removes) and its argument (the pushed time, or
// the heap position to remove, mod the heap size).
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 2, 0, 0, 1, 2, 0, 2, 0})
	f.Add([]byte{0, 9, 0, 8, 0, 7, 3, 1, 0, 7, 3, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		var q eventQueue
		var ref []event // sorted by (t, seq)
		var seq uint64
		var hits int64
		peak := 0
		same := func(a, b event) bool { return a.t == b.t && a.seq == b.seq }
		for k := 0; k+1 < len(script); k += 2 {
			op, arg := script[k]%4, script[k+1]
			switch {
			case op < 2:
				seq++
				e := event{t: Time(arg % 16), seq: seq}
				q.Push(e)
				i := sort.Search(len(ref), func(i int) bool { return e.before(&ref[i]) })
				ref = append(ref, event{})
				copy(ref[i+1:], ref[i:])
				ref[i] = e
			case op == 2 && len(ref) > 0:
				n := len(q.ev)
				if q.full {
					hits++
				}
				got := q.Pop()
				if !same(got, ref[0]) {
					t.Fatalf("step %d: Pop = (t=%d seq=%d), reference (t=%d seq=%d)", k/2, got.t, got.seq, ref[0].t, ref[0].seq)
				}
				ref = ref[1:]
				if !q.full && q.front != (event{}) {
					t.Fatalf("step %d: front slot not cleared after Pop: %+v", k/2, q.front)
				}
				if len(q.ev) < n && q.ev[:n][n-1] != (event{}) {
					t.Fatalf("step %d: vacated heap slot %d not cleared", k/2, n-1)
				}
			case op == 3 && len(ref) > 0:
				q.flush()
				if q.full || len(q.ev) != len(ref) {
					t.Fatalf("step %d: after flush full=%v with %d heap events, reference %d", k/2, q.full, len(q.ev), len(ref))
				}
				i := int(arg) % len(q.ev)
				victim := q.ev[i]
				n := len(q.ev)
				if got := q.removeAt(i); !same(got, victim) {
					t.Fatalf("step %d: removeAt(%d) = (t=%d seq=%d), want (t=%d seq=%d)", k/2, i, got.t, got.seq, victim.t, victim.seq)
				}
				if q.ev[:n][n-1] != (event{}) {
					t.Fatalf("step %d: vacated heap slot %d not cleared", k/2, n-1)
				}
				for j := range ref {
					if ref[j].seq == victim.seq {
						ref = append(ref[:j], ref[j+1:]...)
						break
					}
				}
			}
			peak = max(peak, len(ref))
			if q.Len() != len(ref) || q.peak != peak || q.frontHits != hits {
				t.Fatalf("step %d: Len %d peak %d front hits %d, reference %d, %d and %d", k/2, q.Len(), q.peak, q.frontHits, len(ref), peak, hits)
			}
			if len(ref) > 0 && !same(*q.min(), ref[0]) {
				t.Fatalf("step %d: min (t=%d seq=%d), reference (t=%d seq=%d)", k/2, q.min().t, q.min().seq, ref[0].t, ref[0].seq)
			}
			for i := 1; i < len(q.ev); i++ {
				if q.ev[i].before(&q.ev[(i-1)/2]) {
					t.Fatalf("step %d: heap order broken at %d", k/2, i)
				}
			}
		}
		for i := 0; q.Len() > 0; i++ {
			if got := q.Pop(); !same(got, ref[i]) {
				t.Fatalf("drain %d: Pop = (t=%d seq=%d), reference (t=%d seq=%d)", i, got.t, got.seq, ref[i].t, ref[i].seq)
			}
		}
	})
}
