package msg

import (
	"testing"

	"mgs/internal/sim"
)

// sizedTopos resolves every named topology against one machine shape.
func sizedTopos(t *testing.T, nssmp int) map[string]Topology {
	t.Helper()
	c := Costs{SendOverhead: 10, HandlerEntry: 50, BytesPerCycle: 2, InterOverhead: 100, InterDelay: 800}
	out := make(map[string]Topology)
	for _, name := range TopologyNames() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = spec.(sizer).sized(nssmp, c)
	}
	return out
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := ByName("hypercube"); err == nil {
		t.Fatal("ByName accepted an unknown topology")
	}
	topo, err := ByName("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.(*Uniform); !ok {
		t.Fatalf("empty name resolved to %T, want *Uniform", topo)
	}
}

// TestRouteHopSymmetry: every topology routes a->b and b->a over the
// same number of links, and self-routes are empty.
func TestRouteHopSymmetry(t *testing.T) {
	const nssmp = 32
	for name, topo := range sizedTopos(t, nssmp) {
		for a := 0; a < nssmp; a++ {
			if topo.Route(a, a) != nil {
				t.Fatalf("%s: self-route of %d not nil", name, a)
			}
			for b := a + 1; b < nssmp; b++ {
				fw, bw := topo.Route(a, b), topo.Route(b, a)
				if len(fw) == 0 {
					t.Fatalf("%s: empty route %d->%d", name, a, b)
				}
				if len(fw) != len(bw) {
					t.Fatalf("%s: asymmetric hop count %d->%d: %d vs %d", name, a, b, len(fw), len(bw))
				}
				if fw[0].From != a || fw[len(fw)-1].To != b {
					t.Fatalf("%s: route %d->%d starts at %d, ends at %d", name, a, b, fw[0].From, fw[len(fw)-1].To)
				}
			}
		}
	}
}

// TestArrivalTriangleInequality: on a fresh (uncontended) network, the
// direct path never loses to a relayed one — routing is shortest-path.
func TestArrivalTriangleInequality(t *testing.T) {
	const nssmp = 16
	for name, topo := range sizedTopos(t, nssmp) {
		for a := 0; a < nssmp; a++ {
			for b := 0; b < nssmp; b++ {
				for c := 0; c < nssmp; c++ {
					if a == b || b == c || a == c {
						continue
					}
					occ1 := newOccupancy(new(int64))
					direct := topo.Arrive(&occ1, a, c, 0, 64)
					occ2 := newOccupancy(new(int64))
					viaB := topo.Arrive(&occ2, b, c, topo.Arrive(&occ2, a, b, 0, 64), 64)
					if direct > viaB {
						t.Fatalf("%s: direct %d->%d arrives at %d, relay via %d at %d", name, a, c, direct, b, viaB)
					}
				}
			}
		}
	}
}

// TestSizedRouteLinks pins how each topology sizes itself from the
// cost table (delay 800, 2 bytes per cycle) at 32 SSMPs: uniform is one
// link of the delay; the mesh is 6×6 with delay/4 per hop; tiered has
// sites of 8 joined by a WAN trunk of 10× the delay at 1 byte per
// cycle, behind delay/4 LAN hops.
func TestSizedRouteLinks(t *testing.T) {
	topos := sizedTopos(t, 32)
	lan := Link{Latency: 200, BytesPerCycle: 2}
	for _, tc := range []struct {
		name string
		a, b int
		want []Link // From and To not compared
	}{
		{"uniform", 0, 31, []Link{{Latency: 800, BytesPerCycle: 2}}},
		{"mesh", 0, 31, []Link{lan, lan, lan, lan, lan, lan}}, // (0,0) to (1,5)
		{"tiered", 0, 7, []Link{lan, lan}},
		{"tiered", 0, 24, []Link{lan, {Latency: 8000, BytesPerCycle: 1}, lan}},
	} {
		route := topos[tc.name].Route(tc.a, tc.b)
		if len(route) != len(tc.want) {
			t.Fatalf("%s: route %d->%d has %d links, want %d", tc.name, tc.a, tc.b, len(route), len(tc.want))
		}
		for i, l := range route {
			if w := tc.want[i]; l.Latency != w.Latency || l.BytesPerCycle != w.BytesPerCycle {
				t.Fatalf("%s: route %d->%d link %d = %+v, want latency %d, %d bytes/cycle", tc.name, tc.a, tc.b, i, l, w.Latency, w.BytesPerCycle)
			}
		}
	}
}

// TestContentionDeterminism replays one message schedule through two
// independent Occupancy instances per topology: arrivals and the
// accumulated link-wait counter must match exactly. This is the
// property that keeps contended runs bit-identical no matter how many
// sweep workers share the (immutable) topology spec.
func TestContentionDeterminism(t *testing.T) {
	const nssmp = 16
	type msgSpec struct {
		a, b   int
		depart sim.Time
		bytes  int
	}
	var sched []msgSpec
	// A deterministic all-pairs burst with staggered departures.
	for i := 0; i < nssmp; i++ {
		for j := 0; j < nssmp; j++ {
			if i != j {
				sched = append(sched, msgSpec{i, j, sim.Time((i*7 + j*3) % 50), 256})
			}
		}
	}
	for name, topo := range sizedTopos(t, nssmp) {
		run := func() ([]sim.Time, int64) {
			var wait int64
			occ := newOccupancy(&wait)
			out := make([]sim.Time, len(sched))
			for i, m := range sched {
				out[i] = topo.Arrive(&occ, m.a, m.b, m.depart, m.bytes)
			}
			return out, wait
		}
		arr1, wait1 := run()
		arr2, wait2 := run()
		if wait1 != wait2 {
			t.Fatalf("%s: link-wait differs across replays: %d vs %d", name, wait1, wait2)
		}
		for i := range arr1 {
			if arr1[i] != arr2[i] {
				t.Fatalf("%s: message %d arrival differs: %d vs %d", name, i, arr1[i], arr2[i])
			}
		}
		if name != "uniform" && wait1 == 0 {
			t.Fatalf("%s: all-pairs burst saw no link contention", name)
		}
		if name == "uniform" && wait1 != 0 {
			t.Fatalf("uniform: contention charged on the uncontended LAN (wait=%d)", wait1)
		}
	}
}

// TestArriveCrossesRoute: on the contended topologies Arrive books the
// links Route lists, in Route's order, at the times crossing them one
// by one gives — on an all-pairs burst in which links are busy, so a
// hop out of order or at another time shows as a different arrival
// or link wait. (Uniform books no link: its LAN is uncontended.)
func TestArriveCrossesRoute(t *testing.T) {
	const nssmp = 20 // a ragged 5x5 mesh, three tiered sites
	for name, topo := range sizedTopos(t, nssmp) {
		if name == "uniform" {
			continue
		}
		var wait, refWait int64
		occ, ref := newOccupancy(&wait), newOccupancy(&refWait)
		for i := 0; i < nssmp; i++ {
			for j := 0; j < nssmp; j++ {
				depart, bytes := sim.Time((i*5+j*3)%40), 64+(i+j)%3*200
				got := topo.Arrive(&occ, i, j, depart, bytes)
				want := depart
				for _, l := range topo.Route(i, j) {
					want = crossLink(&ref, l, want, bytes)
				}
				if got != want || wait != refWait {
					t.Fatalf("%s: %d->%d arrives at %d with %d link-wait cycles so far; crossing its route gives %d and %d",
						name, i, j, got, wait, want, refWait)
				}
			}
		}
		if wait == 0 {
			t.Fatalf("%s: the burst saw no link contention", name)
		}
	}
}

// TestArriveDoesNotAllocate pins Arrive, which runs once per
// inter-SSMP message, at zero allocations on every topology once the
// links it books are known to the Occupancy.
func TestArriveDoesNotAllocate(t *testing.T) {
	const nssmp = 20
	for name, topo := range sizedTopos(t, nssmp) {
		occ := newOccupancy(new(int64))
		burst := func() {
			for i := 0; i < nssmp; i++ {
				for j := 0; j < nssmp; j++ {
					topo.Arrive(&occ, i, j, 0, 256)
				}
			}
		}
		burst()
		if n := testing.AllocsPerRun(10, burst); n != 0 {
			t.Errorf("%s: %v allocations per %d arrivals, want 0", name, n, nssmp*nssmp)
		}
	}
}

// TestTieredWANSlowerThanLAN: the whole point of the tiered topology is
// that crossing sites costs an order of magnitude more than staying in
// one.
func TestTieredWANSlowerThanLAN(t *testing.T) {
	topo := sizedTopos(t, 32)["tiered"]
	occ := newOccupancy(new(int64))
	sameSite := topo.Arrive(&occ, 0, 1, 0, 64) // site 0
	occ2 := newOccupancy(new(int64))
	crossSite := topo.Arrive(&occ2, 0, 9, 0, 64) // site 0 -> site 1
	if crossSite < 5*sameSite {
		t.Fatalf("cross-site arrival %d not meaningfully slower than same-site %d", crossSite, sameSite)
	}
}
