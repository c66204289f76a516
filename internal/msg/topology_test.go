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

func TestDescribeNames(t *testing.T) {
	topos := sizedTopos(t, 32)
	want := map[string]string{
		"uniform": "uniform(delay=800)",
		"mesh":    "mesh2d(6x6,perhop=200)",
		"tiered":  "tiered(sites=4,site=8,wan=8000,wanbpc=1)",
	}
	for name, d := range want {
		if got := topos[name].Describe(); got != d {
			t.Fatalf("%s.Describe() = %q, want %q", name, got, d)
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
