package msg

import (
	"testing"

	"mgs/internal/sim"
)

func testCosts() Costs {
	return Costs{SendOverhead: 10, HandlerEntry: 50, PerHop: 2, BytesPerCycle: 2, InterDelay: 1000, InterOverhead: 100}
}

// build makes a 2-SSMP × 4-proc machine whose procs park immediately so
// handlers can run against them.
func build(t *testing.T) (*sim.Engine, *Network, []*sim.Proc) {
	t.Helper()
	eng := sim.NewEngine()
	procs := make([]*sim.Proc, 8)
	for i := range procs {
		procs[i] = eng.NewProc(i, 0, func(p *sim.Proc) { p.Park() })
	}
	n := NewNetwork(eng, procs, 4, testCosts())
	return eng, n, procs
}

func finish(t *testing.T, eng *sim.Engine, procs []*sim.Proc, at sim.Time) {
	t.Helper()
	eng.At(at, func() {
		for _, p := range procs {
			p.Wake(at)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIntraLatencyAndHandler(t *testing.T) {
	eng, n, procs := build(t)
	var done sim.Time
	// proc 0 -> proc 1: 1 hop × 2 + 0 xfer; arrive = 0+10+2 = 12;
	// handler = 50; done = 62.
	n.Send(0, 1, 0, 0, 0, func(at sim.Time) { done = at })
	finish(t, eng, procs, 10000)
	if done != 62 {
		t.Fatalf("handler done at %d, want 62", done)
	}
	if n.Counters.IntraMsgs != 1 || n.Counters.InterMsgs != 0 {
		t.Fatalf("counters = %+v", n.Counters)
	}
}

func TestInterSSMPDelayApplied(t *testing.T) {
	eng, n, procs := build(t)
	var done sim.Time
	// proc 0 -> proc 4 (other SSMP), 1024 bytes: arrive = 0 + 10 +
	// (100 + 1000 + 512) = 1622; done = 1672.
	n.Send(0, 4, 0, 1024, 0, func(at sim.Time) { done = at })
	finish(t, eng, procs, 10000)
	if done != 1672 {
		t.Fatalf("handler done at %d, want 1672", done)
	}
	if n.Counters.InterBytes != 1024 {
		t.Fatalf("InterBytes = %d", n.Counters.InterBytes)
	}
}

func TestHandlersSerializeOnDestination(t *testing.T) {
	eng, n, procs := build(t)
	var d1, d2 sim.Time
	n.Send(0, 1, 0, 0, 0, func(at sim.Time) { d1 = at })
	n.Send(2, 1, 0, 0, 0, func(at sim.Time) { d2 = at })
	finish(t, eng, procs, 10000)
	// Both arrive near t=12/14; the second must queue behind the first.
	if d2 < d1+50 {
		t.Fatalf("handlers overlapped: d1=%d d2=%d", d1, d2)
	}
}

func TestHandlerChargesMGSViaCallback(t *testing.T) {
	eng, n, procs := build(t)
	charged := map[int]sim.Time{}
	n.OnHandler = func(proc int, cycles sim.Time) { charged[proc] += cycles }
	n.Send(0, 2, 0, 0, 25, func(sim.Time) {})
	finish(t, eng, procs, 10000)
	if charged[2] != 75 {
		t.Fatalf("proc 2 charged %d, want 75 (50 entry + 25 extra)", charged[2])
	}
	_ = procs
}

func TestExtend(t *testing.T) {
	eng, n, procs := build(t)
	var seq []sim.Time
	n.Send(0, 1, 0, 0, 0, func(at sim.Time) {
		seq = append(seq, at)
		end := n.Extend(1, at, 100)
		seq = append(seq, end)
	})
	finish(t, eng, procs, 10000)
	if len(seq) != 2 || seq[1] != seq[0]+100 {
		t.Fatalf("Extend sequence = %v", seq)
	}
}

func TestHopsSymmetricAndZeroSelf(t *testing.T) {
	eng := sim.NewEngine()
	procs := make([]*sim.Proc, 16)
	for i := range procs {
		procs[i] = eng.NewProc(i, 0, func(p *sim.Proc) {})
	}
	n := NewNetwork(eng, procs, 16, testCosts())
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 16; a++ {
		if n.hops(a, a) != 0 {
			t.Fatalf("hops(%d,%d) != 0", a, a)
		}
		for b := 0; b < 16; b++ {
			if n.hops(a, b) != n.hops(b, a) {
				t.Fatalf("hops not symmetric for %d,%d", a, b)
			}
		}
	}
	// Corners of a 4x4 mesh are 6 hops apart.
	if n.hops(0, 15) != 6 {
		t.Fatalf("hops(0,15) = %d, want 6", n.hops(0, 15))
	}
}

// TestSitesMatchArithmetic: the per-processor site table answers what
// dividing by the cluster size and the mesh width answers, at square
// and non-square cluster sizes.
func TestSitesMatchArithmetic(t *testing.T) {
	for _, c := range []int{1, 2, 3, 4, 5, 8, 9, 16} {
		w := 1
		for w*w < c {
			w++
		}
		eng := sim.NewEngine()
		procs := make([]*sim.Proc, 4*c)
		for i := range procs {
			procs[i] = eng.NewProc(i, 0, func(p *sim.Proc) {})
		}
		n := NewNetwork(eng, procs, c, testCosts())
		for a := range procs {
			if got := n.SSMPOf(a); got != a/c {
				t.Fatalf("C=%d: SSMPOf(%d) = %d, want %d", c, a, got, a/c)
			}
			for b := range procs {
				ai, bi := a%c, b%c
				want := sim.Time(abs(ai%w-bi%w) + abs(ai/w-bi/w))
				if got := n.hops(a, b); got != want {
					t.Fatalf("C=%d: hops(%d,%d) = %d, want %d", c, a, b, got, want)
				}
			}
		}
	}
}

func abs(x int) int { return max(x, -x) }

func TestJitterDeterministicAndBounded(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.NewEngine()
		procs := make([]*sim.Proc, 2)
		for i := range procs {
			procs[i] = eng.NewProc(i, 0, func(p *sim.Proc) { p.Park() })
		}
		costs := testCosts()
		costs.Jitter = 500
		costs.JitterSeed = 7
		n := NewNetwork(eng, procs, 1, costs)
		var arrivals []sim.Time
		for i := 0; i < 20; i++ {
			n.Send(0, 1, 0, 0, 0, func(at sim.Time) { arrivals = append(arrivals, at) })
		}
		eng.At(1_000_000, func() {
			for _, p := range procs {
				p.Wake(1_000_000)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lost messages: %d/%d", len(a), len(b))
	}
	varies := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
		if i > 0 && a[i] != a[0] {
			varies = true
		}
	}
	if !varies {
		t.Fatal("jitter produced identical delays for all messages")
	}
}

// hop is a record handler that sends itself on, n more times: the shape
// of core's and msync's pooled protocol messages.
type hop struct {
	net   *Network
	n, at int
}

func (h *hop) Deliver(done sim.Time) {
	if h.n--; h.n < 0 {
		return
	}
	from := h.at
	h.at = (h.at + 3) % 8
	h.net.SendTagged(sim.Label{Kind: "HOP"}, from, h.at, done, 64, 0, h)
}

// A message in flight is one delivery record that is the handler of
// both of its events and goes back on the Network's free list, so a
// steady stream of sends allocates nothing of its own: what is left is
// the caller's handler, here built once before the chain starts — a
// closure passed to Send (the frozen bench driver's shape, adapted by
// Func without an allocation) or a record passed to SendTagged. The
// chain alternates intra- and inter-SSMP hops. Two sizes are compared
// so that what a run allocates once cancels; one allocation per message
// would show as a thousand.
func TestSteadyStateSendDoesNotAllocate(t *testing.T) {
	for _, record := range []bool{false, true} {
		chain := func(n int) *Network {
			eng := sim.NewEngine()
			procs := make([]*sim.Proc, 8)
			for i := range procs {
				procs[i] = eng.NewProc(i, 0, func(*sim.Proc) {})
			}
			net := NewNetwork(eng, procs, 4, testCosts())
			if record {
				h := &hop{net: net, n: n}
				eng.At(1, func() { h.Deliver(0) })
			} else {
				at := 0
				var next func(done sim.Time)
				next = func(done sim.Time) {
					if n--; n < 0 {
						return
					}
					from := at
					at = (at + 3) % len(procs)
					net.Send(from, at, done, 64, 0, next)
				}
				eng.At(1, func() { next(1) })
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			return net
		}
		few := testing.AllocsPerRun(5, func() { chain(100) })
		many := testing.AllocsPerRun(5, func() { chain(1100) })
		if many-few >= 10 {
			t.Fatalf("record=%v: Send allocates per message: %.0f allocations for 100 messages, %.0f for 1100", record, few, many)
		}
		if net := chain(1100); net.DeliveriesNew != 1 || net.DeliveriesReused != 1099 {
			t.Fatalf("record=%v: a chain of 1100 messages, one in flight at a time, allocated %d delivery records and reused %d; want 1 and 1099",
				record, net.DeliveriesNew, net.DeliveriesReused)
		}
	}
}
