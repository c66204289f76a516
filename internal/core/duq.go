package core

import "mgs/internal/vm"

// duq is one processor's delayed update queue (paper §3.1.1): the set of
// pages the processor has write-faulted on since its last release, in
// fault order. At a release point the owning processor drains it,
// sending one REL per page and waiting for the RACK before moving to the
// next — the serial flush that produces the paper's critical-section
// dilation.
//
// Invalidations leave the queue alone (the deviation from Table 1's arc
// 12 that finishInv explains), so queue[head:] is exactly the queued
// pages. The queue rewinds to its start whenever it drains, so the
// backing array is reused release after release.
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

// pop returns the oldest entry, or false if the queue is empty.
func (d *duq) pop() (vm.Page, bool) {
	if d.head == len(d.queue) {
		d.queue, d.head = d.queue[:0], 0
		return 0, false
	}
	h := d.queue[d.head]
	d.head++
	delete(d.member, h)
	return h, true
}

// len reports the number of queued pages.
func (d *duq) len() int { return len(d.member) }
