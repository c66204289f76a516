package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"mgs/internal/mem"
	"mgs/internal/vm"
)

// testDUQ is a delayed update queue with the TLB whose marks hold its
// membership and the store it carves its runs from, as a cpu has them.
// The TLB holds 4 mappings, so fills of the 16 pages the tests use
// evict.
type testDUQ struct {
	d    duq
	tlb  *vm.TLB
	runs mem.Blocks[vm.Page]
}

func newTestDUQ() *testDUQ              { return &testDUQ{tlb: vm.NewTLB(4)} }
func (q *testDUQ) add(v vm.Page)        { q.d.add(q.tlb, &q.runs, v) }
func (q *testDUQ) pop() (vm.Page, bool) { return q.d.pop(q.tlb) }

// members checks the TLB's marks against the reference set over the
// pages 0–15, returning the first disagreement.
func (q *testDUQ) members(ref map[vm.Page]bool) string {
	for v := vm.Page(0); v < 16; v++ {
		if q.tlb.Marked(v) != ref[v] {
			return fmt.Sprintf("page %d marked %v, reference member %v", v, q.tlb.Marked(v), ref[v])
		}
	}
	if q.d.len() != len(ref) {
		return fmt.Sprintf("len %d, reference %d", q.d.len(), len(ref))
	}
	return ""
}

func TestDUQOrderAndDedup(t *testing.T) {
	q := newTestDUQ()
	q.add(3)
	q.add(1)
	q.add(3) // dup
	q.add(2)
	if q.d.len() != 3 {
		t.Fatalf("len = %d, want 3", q.d.len())
	}
	var got []vm.Page
	for {
		p, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, p)
	}
	if want := []vm.Page{3, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
	if q.tlb.Marked(3) || q.tlb.Len() != 0 {
		t.Fatalf("after the drain: page 3 marked %v, %d mappings; want unmarked, none", q.tlb.Marked(3), q.tlb.Len())
	}
}

// TestDUQAddPopMatchesFIFO: the queue is an exact FIFO-set — random
// add/pop streams must match a reference model, and the owner TLB's
// marks must be exactly the reference's members. A page popped and
// written again is queued again.
func TestDUQAddPopMatchesFIFO(t *testing.T) {
	var why string
	run := func(ops []uint8) bool {
		q := newTestDUQ()
		var order []vm.Page
		member := map[vm.Page]bool{}
		for i, op := range ops {
			page := vm.Page(op % 16)
			if op >= 128 { // pop
				gp, gok := q.pop()
				wok := len(order) > 0
				if gok != wok || gok && gp != order[0] {
					why = fmt.Sprintf("step %d: pop = %d,%v, reference %v", i, gp, gok, order)
					return false
				}
				if gok {
					delete(member, order[0])
					order = order[1:]
				}
			} else { // add
				q.add(page)
				if !member[page] {
					member[page] = true
					order = append(order, page)
				}
			}
			if got := q.d.queue[q.d.head:]; !slices.Equal(got, order) {
				why = fmt.Sprintf("step %d: queue %v, reference %v (a popped page must queue again)", i, got, order)
				return false
			}
			if w := q.members(member); w != "" {
				why = fmt.Sprintf("step %d: %s", i, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("%s (%v)", why, err)
	}
}

// TestDUQDrainAfterRandomOps: under arbitrary add/pop traffic mixed
// with fills and invalidations of the same pages in the owner's TLB,
// membership stays exact and draining the queue yields exactly the
// queued pages, each once: a mark outlives the mapping's invalidation
// and eviction.
func TestDUQDrainAfterRandomOps(t *testing.T) {
	var why string
	run := func(ops []uint16) bool {
		q := newTestDUQ()
		live := map[vm.Page]bool{}
		for i, op := range ops {
			page := vm.Page(op % 16)
			switch (op / 16) % 4 {
			case 0:
				q.add(page)
				live[page] = true
			case 1:
				if p, ok := q.pop(); ok {
					if !live[p] {
						why = fmt.Sprintf("step %d: popped page %d, never queued", i, p)
						return false
					}
					delete(live, p)
				} else if len(live) != 0 {
					why = fmt.Sprintf("step %d: empty pop with %d pages queued", i, len(live))
					return false
				}
			case 2:
				q.tlb.Insert(page, vm.Write)
			case 3:
				q.tlb.Invalidate(page)
			}
			if w := q.members(live); w != "" {
				why = fmt.Sprintf("step %d: %s", i, w)
				return false
			}
		}
		seen := map[vm.Page]bool{}
		for {
			p, ok := q.pop()
			if !ok {
				break
			}
			if !live[p] || seen[p] {
				why = fmt.Sprintf("drain: page %d popped (queued %v, seen %v)", p, live[p], seen[p])
				return false
			}
			seen[p] = true
		}
		if len(seen) != len(live) {
			why = fmt.Sprintf("drain: %d pages popped, %d queued", len(seen), len(live))
			return false
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("%s (%v)", why, err)
	}
}

// TestDUQRunsGrowAndRewind: a queue takes its runs from the store, a
// first run of minQueue pages and then twice its length when full; a
// drained queue rewinds into the run it has, and a half-popped full
// one slides down instead of growing.
func TestDUQRunsGrowAndRewind(t *testing.T) {
	q := newTestDUQ()
	for v := range vm.Page(minQueue + 1) {
		q.add(v)
	}
	if c := cap(q.d.queue); c != 2*minQueue {
		t.Fatalf("after %d adds the run holds %d pages, want %d", minQueue+1, c, 2*minQueue)
	}
	for range minQueue + 1 {
		q.pop()
	}
	q.pop() // empty: rewinds
	made := q.runs.Made()
	for v := range vm.Page(2 * minQueue) {
		q.add(v)
	}
	for range minQueue + 1 {
		q.pop()
	}
	q.add(100)
	if q.runs.Made() != made || cap(q.d.queue) != 2*minQueue || q.d.len() != minQueue {
		t.Fatalf("refill and slide: %d blocks (was %d), run %d, len %d; want no new block, run %d, len %d",
			q.runs.Made(), made, cap(q.d.queue), q.d.len(), 2*minQueue, minQueue)
	}
}
