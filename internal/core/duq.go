package core

import (
	"mgs/internal/mem"
	"mgs/internal/vm"
)

// duq is one processor's delayed update queue (paper §3.1.1): the set of
// pages the processor has write-faulted on since its last release, in
// fault order. At a release point the owning processor drains it,
// sending one REL per page and waiting for the RACK before the next —
// the serial flush that produces the paper's critical-section dilation.
//
// Invalidations leave the queue alone (the deviation from Table 1's arc
// 12 that finishInv explains), so queue[head:] is exactly the queued
// pages. Membership is the mark on the page's entry in the owner's TLB
// table (vm.TLB.Mark), set by add and cleared by pop: one bit beside
// the privilege, exact at any cluster size, where a map per queue cost
// allocations and a bit per processor on the page record would wrap
// past 64 processors to an SSMP. The queue rewinds to its start
// whenever it drains, so its run is reused release after release; a
// full queue moves to a run twice as long carved from the machine's
// queue store, or slides down when half of it is already popped.
type duq struct {
	queue []vm.Page
	head  int
}

// minQueue is the pages of a queue's first run.
const minQueue = 4

// maxQueueBlock caps a block of the queue store, in pages (32 KB).
const maxQueueBlock = 4096

// add enqueues page v, unless tlb, the owner's, marks it queued
// already; a queue that must grow carves its new run from runs.
func (d *duq) add(tlb *vm.TLB, runs *mem.Blocks[vm.Page], v vm.Page) {
	if !tlb.Mark(v) {
		return
	}
	if len(d.queue) == cap(d.queue) {
		live := d.queue[d.head:]
		q := d.queue[:0]
		if 2*len(live) >= cap(d.queue) {
			q = runs.Carve(max(2*cap(d.queue), minQueue), maxQueueBlock)[:0]
		}
		d.queue, d.head = append(q, live...), 0
	}
	d.queue = append(d.queue, v)
}

// pop returns the oldest entry, clearing its mark in tlb, or false if
// the queue is empty.
func (d *duq) pop(tlb *vm.TLB) (vm.Page, bool) {
	if d.head == len(d.queue) {
		d.queue, d.head = d.queue[:0], 0
		return 0, false
	}
	h := d.queue[d.head]
	d.head++
	tlb.Unmark(h)
	return h, true
}

// len reports the number of queued pages.
func (d *duq) len() int { return len(d.queue) - d.head }
