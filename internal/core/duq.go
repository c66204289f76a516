package core

import "mgs/internal/vm"

// duq is one processor's delayed update queue (paper §3.1.1): the set of
// pages the processor has write-faulted on since its last release. At a
// release point the owning processor drains it, sending one REL per page
// and waiting for the RACK before moving to the next — the serial flush
// that produces the paper's critical-section dilation.
//
// Entries are removed out of band when a page is invalidated (a PINV
// handler runs, Table 1 arc 12); removal is lazy — pop skips dead heads.
// queue[head:] is pending; the queue rewinds to its start whenever it
// drains, so the backing array is reused release after release.
type duq struct {
	queue  []vm.Page
	head   int
	member map[vm.Page]bool
}

func newDUQ() *duq {
	return &duq{member: make(map[vm.Page]bool)}
}

// add enqueues the page if not already queued.
func (d *duq) add(p vm.Page) {
	if d.member[p] {
		return
	}
	d.member[p] = true
	d.queue = append(d.queue, p)
}

// remove drops the page (invalidation pulled it out from under us).
func (d *duq) remove(p vm.Page) { delete(d.member, p) }

// pop returns the oldest live entry, or false if the queue is empty.
func (d *duq) pop() (vm.Page, bool) {
	for d.head < len(d.queue) {
		h := d.queue[d.head]
		d.head++
		if d.member[h] {
			delete(d.member, h)
			return h, true
		}
	}
	d.queue, d.head = d.queue[:0], 0
	return 0, false
}

// len reports the number of live entries.
func (d *duq) len() int { return len(d.member) }
