package core

import (
	"testing"
	"testing/quick"

	"mgs/internal/vm"
)

// TestDUQAddPopMatchesFIFO: the queue is an exact FIFO-set — random
// add/pop streams must match a reference model.
func TestDUQAddPopMatchesFIFO(t *testing.T) {
	run := func(ops []uint8) bool {
		d := newDUQ()
		var order []vm.Page
		member := map[vm.Page]bool{}
		for _, op := range ops {
			page := vm.Page(op % 16)
			if op >= 128 { // pop
				gp, gok := d.pop()
				wok := len(order) > 0
				if gok != wok {
					return false
				}
				if gok {
					if gp != order[0] {
						return false
					}
					delete(member, order[0])
					order = order[1:]
				}
			} else { // add
				d.add(page)
				if !member[page] {
					member[page] = true
					order = append(order, page)
				}
			}
			if d.len() != len(member) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDUQDrainAfterRandomOps: under arbitrary add/pop traffic, draining
// the queue must yield exactly the set of queued pages, each once.
func TestDUQDrainAfterRandomOps(t *testing.T) {
	run := func(ops []uint16) bool {
		d := newDUQ()
		live := map[vm.Page]bool{}
		for _, op := range ops {
			page := vm.Page(op % 16)
			switch (op / 16) % 2 {
			case 0:
				d.add(page)
				live[page] = true
			case 1:
				if p, ok := d.pop(); ok {
					if !live[p] {
						return false // popped a phantom page
					}
					delete(live, p)
				} else if len(live) != 0 {
					return false // empty pop while entries were live
				}
			}
			if d.len() != len(live) {
				return false
			}
		}
		seen := map[vm.Page]bool{}
		for {
			p, ok := d.pop()
			if !ok {
				break
			}
			if !live[p] || seen[p] {
				return false
			}
			seen[p] = true
		}
		return len(seen) == len(live)
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
