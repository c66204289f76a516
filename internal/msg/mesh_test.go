package msg

import (
	"testing"
	"testing/quick"

	"mgs/internal/sim"
)

func meshCosts() Costs {
	return Costs{
		SendOverhead: 10, HandlerEntry: 50, PerHop: 2, BytesPerCycle: 2,
		InterOverhead: 100, Topology: NewMesh2D(), InterPerHop: 200,
		// InterDelay deliberately set to prove it is ignored in mesh mode.
		InterDelay: 99999,
	}
}

// buildMesh makes a 16-SSMP machine (one processor per SSMP, 4×4 grid).
func buildMesh(t *testing.T) (*sim.Engine, *Network, []*sim.Proc) {
	t.Helper()
	eng := sim.NewEngine()
	procs := make([]*sim.Proc, 16)
	for i := range procs {
		procs[i] = eng.NewProc(i, 0, func(p *sim.Proc) { p.Park() })
	}
	return eng, NewNetwork(eng, procs, 1, meshCosts()), procs
}

func TestMeshRouteIsDimensionOrdered(t *testing.T) {
	_, n, _ := buildMesh(t)
	mesh := n.Topology().(*Mesh2D)
	// SSMP 0 = (0,0) to SSMP 15 = (3,3): X first to (3,0)=3, then Y down
	// through 7 and 11 to 15.
	want := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 7}, {7, 11}, {11, 15}}
	got := mesh.Route(0, 15)
	if len(got) != len(want) {
		t.Fatalf("route = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].From != want[i][0] || got[i].To != want[i][1] {
			t.Fatalf("route[%d] = %v, want %v", i, got[i], want[i])
		}
		if got[i].Latency != 200 || got[i].BytesPerCycle != 2 {
			t.Fatalf("route[%d] = %+v, want latency 200, bpc 2", i, got[i])
		}
	}
	if len(mesh.Route(5, 5)) != 0 {
		t.Fatal("self route not empty")
	}
}

func TestMeshRouteLengthMatchesManhattanDistance(t *testing.T) {
	_, n, _ := buildMesh(t)
	mesh := n.Topology().(*Mesh2D)
	manhattan := func(a, b int) int {
		dx, dy := a%4-b%4, a/4-b/4
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	prop := func(a, b uint8) bool {
		x, y := int(a%16), int(b%16)
		return len(mesh.Route(x, y)) == manhattan(x, y) &&
			len(mesh.Route(x, y)) == len(mesh.Route(y, x))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshUncontendedLatency(t *testing.T) {
	eng, n, procs := buildMesh(t)
	var done sim.Time
	// 0 -> 15: 6 hops. Zero payload clamps to 1 cycle/link of xfer.
	// arrive = 10 + 100 + 6*(200+1) = 1316; done = 1316 + 50 = 1366.
	n.Send(0, 15, 0, 0, 0, func(at sim.Time) { done = at })
	finish(t, eng, procs, 100000)
	if done != 1366 {
		t.Fatalf("handler done at %d, want 1366 (InterDelay must be ignored)", done)
	}
	// Latency() must agree with the uncontended walk (minus send/handler).
	if lat := n.Latency(0, 15, 0); lat != 100+6*200 {
		t.Fatalf("Latency = %d, want %d", lat, 100+6*200)
	}
}

func TestMeshLinkContention(t *testing.T) {
	eng, n, procs := buildMesh(t)
	var d1, d2 sim.Time
	// Two 1024-byte messages (512 cycles of serialization each) cross
	// the same directed link 0->1 back to back: the second queues for
	// exactly one serialization time.
	n.Send(0, 1, 0, 1024, 0, func(at sim.Time) { d1 = at })
	n.Send(0, 1, 0, 1024, 0, func(at sim.Time) { d2 = at })
	finish(t, eng, procs, 100000)
	if n.Counters.LinkWaitCycles != 512 {
		t.Fatalf("LinkWaitCycles = %d, want 512", n.Counters.LinkWaitCycles)
	}
	if d2 != d1+512 {
		t.Fatalf("d1=%d d2=%d, want second exactly 512 later", d1, d2)
	}
}

func TestMeshOppositeDirectionsDoNotContend(t *testing.T) {
	eng, n, procs := buildMesh(t)
	var d1, d2 sim.Time
	// 0->1 and 1->0 use distinct directed links; neither should wait.
	n.Send(0, 1, 0, 1024, 0, func(at sim.Time) { d1 = at })
	n.Send(1, 0, 0, 1024, 0, func(at sim.Time) { d2 = at })
	finish(t, eng, procs, 100000)
	if n.Counters.LinkWaitCycles != 0 {
		t.Fatalf("LinkWaitCycles = %d, want 0", n.Counters.LinkWaitCycles)
	}
	if d1 != d2 {
		t.Fatalf("symmetric sends finished at %d and %d", d1, d2)
	}
}

func TestMeshIntraSSMPUnaffected(t *testing.T) {
	// With csize > 1, intra-SSMP messages must still use the intra mesh
	// under a mesh inter-SSMP topology.
	eng := sim.NewEngine()
	procs := make([]*sim.Proc, 8)
	for i := range procs {
		procs[i] = eng.NewProc(i, 0, func(p *sim.Proc) { p.Park() })
	}
	n := NewNetwork(eng, procs, 4, meshCosts())
	var done sim.Time
	n.Send(0, 1, 0, 0, 0, func(at sim.Time) { done = at })
	finish(t, eng, procs, 10000)
	if done != 62 { // same as TestIntraLatencyAndHandler
		t.Fatalf("intra handler done at %d, want 62", done)
	}
}
