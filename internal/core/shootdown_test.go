package core

import (
	"testing"

	"mgs/internal/sim"
)

// TestUpgradeFillSurvivesServeShootdown: a remote read served while a
// home-SSMP processor upgrades the page (between the Remote Client's
// UPGRADE handler, which makes the copy WRITE, and the UP_ACK) shoots
// the home SSMP's mappings down under the upgrade. The UP_ACK's fill
// must record its mapping in tlbDir again: a mapping tlbDir does not
// know survives the next serve's shootdown, so the home processor's
// later writes hit in its TLB, never enter its delayed update queue,
// and no release round collects them — the remote SSMP reads stale
// data. The remote read is swept across the upgrade so some run lands
// in that window.
func TestUpgradeFillSurvivesServeShootdown(t *testing.T) {
	for off := sim.Time(0); off < 2000; off += 25 {
		tm := buildTest(4, 2, 1000, nil)
		va := tm.sys.Space().AllocPages(1024) // page 1, home proc 1 (SSMP 0)
		var got uint64
		// Proc 0 first-touches SSMP 0's copy, so its Remote Client runs
		// there; proc 1, the home processor, upgrades.
		tm.bodies[0] = func(p *sim.Proc) { load64(tm.sys, p, va) }
		tm.bodies[1] = func(p *sim.Proc) {
			p.Sleep(50_000)
			load64(tm.sys, p, va)
			store64(tm.sys, p, va, 1) // the upgrade
			tm.sys.ReleaseAll(p)
			p.Sleep(200_000) // the remote SSMP refetches
			store64(tm.sys, p, va, 2)
			tm.sys.ReleaseAll(p)
		}
		tm.bodies[2] = func(p *sim.Proc) { // the remote SSMP
			p.Sleep(50_000 + off)
			load64(tm.sys, p, va)
			p.Sleep(150_000)
			load64(tm.sys, p, va)
			p.Sleep(200_000)
			got = load64(tm.sys, p, va)
		}
		tm.run(t)
		if got != 2 {
			t.Fatalf("remote read at +%d: final read = %d, want 2", off, got)
		}
	}
}
