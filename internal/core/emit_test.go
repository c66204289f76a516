package core

import (
	"testing"

	"mgs/internal/sim"
	"mgs/internal/vm"
)

// TestUntracedEmitsDoNotBox: with no trace sink attached, no protocol
// emit puts a value on the heap, under any protocol variant. Three
// SSMPs of one processor write their own words of a page homed on a
// fourth and release, over and over, so every release runs a round
// (REL, INV, the replies, UPGRADE, WNOTIFY) or a lazy flush (LREL, whose
// page version passes 255 in the second window); Go boxes an integer
// of 256 or more when it becomes an interface. Equal windows of
// releases are compared — 300–599 against 600–899 per processor — so
// the machine and the first releases cancel. The protocol recycles its
// messages and buffers, so a window allocates almost nothing, while a
// boxed emit argument costs an allocation per event (900 a window).
func TestUntracedEmitsDoNotBox(t *testing.T) {
	const noise = 16
	for _, nv := range Variants() {
		run := func(n int) {
			tm := buildTest(4, 1, 300, func(c *Config) { c.Variant = nv.Variant })
			va := tm.sys.Space().AllocPages(1024)
			for i := 1; i < 4; i++ {
				tm.bodies[i] = func(p *sim.Proc) {
					for k := 0; k < n; k++ {
						store64(tm.sys, p, va+vm.Addr(8*i), uint64(k))
						tm.sys.ReleaseAll(p)
					}
				}
			}
			tm.run(t)
		}
		var allocs [3]float64
		for i := range allocs {
			allocs[i] = testing.AllocsPerRun(1, func() { run(300 * (i + 1)) })
		}
		if first, second := allocs[1]-allocs[0], allocs[2]-allocs[1]; first >= noise || second >= noise {
			t.Errorf("%s: untraced protocol emits allocate: %.0f allocations in releases 300–599, %.0f in 600–899", nv.Name, first, second)
		}
	}
}
