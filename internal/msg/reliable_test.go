package msg

import (
	"testing"

	"mgs/internal/fault"
	"mgs/internal/obs"
	"mgs/internal/sim"
	"mgs/internal/stats"
)

// buildFaulty is build() with a fault plan attached.
func buildFaulty(t *testing.T, plan fault.Plan) (*sim.Engine, *Network, []*sim.Proc, *stats.Fault) {
	t.Helper()
	eng, n, procs := build(t)
	var fs stats.Fault
	n.AttachFault(plan, &fs)
	return eng, n, procs, &fs
}

// Under heavy loss every logical message must still be delivered
// exactly once, in bounded attempts, through the delivery pool.
func TestReliableDeliversExactlyOnceUnderLoss(t *testing.T) {
	plan := fault.Plan{Seed: 3, DropBP: 3000, DupBP: 1000, DelayBP: 2000, MaxDelay: 500}
	eng, n, _, fs := buildFaulty(t, plan)
	const N = 200
	got := make([]int, N)
	for i := 0; i < N; i++ {
		i := i
		n.Send(0, 4, 0, 64, 0, func(sim.Time) { got[i]++ })
	}
	// Keep procs parked long enough for every retransmission to land.
	eng.At(50_000_000, func() {
		for _, p := range n.procs {
			p.Wake(50_000_000)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != 1 {
			t.Fatalf("message %d ran its handler %d times, want exactly 1", i, c)
		}
	}
	if fs.Dropped == 0 || fs.Retransmits == 0 || fs.Timeouts == 0 {
		t.Fatalf("plan injected nothing: %s", fs)
	}
	// One pooled delivery record per logical message, as on the perfect wire.
	if c := n.Deliveries(); c.Carved+c.Reused != N || c.Reused == 0 {
		t.Fatalf("delivery records: %d carved + %d reused, want %d in all and some reused", c.Carved, c.Reused, N)
	}
}

// Duplicated attempts must be suppressed by the sequence window, not
// double-dispatch the handler.
func TestReliableSuppressesDuplicates(t *testing.T) {
	// Dup-only plan: nothing lost, so every duplicate must be caught.
	plan := fault.Plan{Seed: 11, DupBP: 5000, MaxDelay: 300}
	eng, n, _, fs := buildFaulty(t, plan)
	const N = 100
	runs := 0
	for i := 0; i < N; i++ {
		n.Send(1, 5, 0, 8, 0, func(sim.Time) { runs++ })
	}
	eng.At(10_000_000, func() {
		for _, p := range n.procs {
			p.Wake(10_000_000)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if runs != N {
		t.Fatalf("%d handler runs, want %d", runs, N)
	}
	if fs.Duplicated == 0 {
		t.Fatal("plan duplicated nothing")
	}
	// Nothing is lost here, so every extra copy — duplicates plus any
	// spurious retransmissions — must have been suppressed.
	if fs.DupSuppressed != fs.Duplicated+fs.Retransmits {
		t.Fatalf("suppression accounting off: %s", fs)
	}
}

// Intra-SSMP messages bypass the fault layer entirely.
func TestReliableLeavesIntraSSMPAlone(t *testing.T) {
	plan := fault.Plan{Seed: 5, DropBP: 9000}
	eng, n, procs, fs := buildFaulty(t, plan)
	var done sim.Time
	n.Send(0, 1, 0, 0, 0, func(at sim.Time) { done = at })
	finish(t, eng, procs, 10000)
	if done != 62 {
		t.Fatalf("intra-SSMP handler done at %d, want 62 (the fault-free time)", done)
	}
	if fs.Messages != 0 {
		t.Fatalf("intra-SSMP message entered the fault layer: %s", fs)
	}
}

// An empty plan must be the identity: AttachFault detaches and the wire
// timing is bit-identical to a Network with no fault layer.
func TestAttachEmptyPlanIsIdentity(t *testing.T) {
	run := func(attach bool) []sim.Time {
		eng, n, procs := build(t)
		if attach {
			var fs stats.Fault
			n.AttachFault(fault.Plan{Seed: 123}, &fs)
		}
		var arrivals []sim.Time
		for i := 0; i < 10; i++ {
			n.Send(0, 4, sim.Time(i*100), 256, 0, func(at sim.Time) { arrivals = append(arrivals, at) })
		}
		finish(t, eng, procs, 1_000_000)
		return arrivals
	}
	plain, attached := run(false), run(true)
	for i := range plain {
		if plain[i] != attached[i] {
			t.Fatalf("empty plan changed timing at %d: %d vs %d", i, plain[i], attached[i])
		}
	}
}

// The whole transport must be deterministic: identical (plan, traffic)
// gives identical delivery times, counters, and trace streams.
func TestReliableDeterministic(t *testing.T) {
	run := func() ([]sim.Time, stats.Fault, []string) {
		eng, n, _, fs := buildFaulty(t, fault.Plan{Seed: 9, DropBP: 2000, DupBP: 500, DelayBP: 1500, MaxDelay: 700})
		var traces []string
		n.Obs = obs.New().AddSink(obs.FuncSink(func(e obs.Event) { traces = append(traces, e.String()) }))
		var arrivals []sim.Time
		for i := 0; i < 50; i++ {
			n.Send(2, 6, sim.Time(i*37), 128, 0, func(at sim.Time) { arrivals = append(arrivals, at) })
		}
		eng.At(20_000_000, func() {
			for _, p := range n.procs {
				p.Wake(20_000_000)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return arrivals, *fs, traces
	}
	a1, f1, t1 := run()
	a2, f2, t2 := run()
	if len(a1) != 50 || len(a2) != 50 {
		t.Fatalf("lost messages: %d/%d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs: %d vs %d", i, a1[i], a2[i])
		}
	}
	if f1 != f2 {
		t.Fatalf("fault counters differ:\n%s\n%s", f1, f2)
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace line %d differs:\n%s\n%s", i, t1[i], t2[i])
		}
	}
}

// The retry limit must stop the engine rather than livelock when the
// network eats everything.
func TestRetryLimitStopsTotalLoss(t *testing.T) {
	eng, n, _, _ := buildFaulty(t, fault.Plan{Seed: 1, DropBP: 10000})
	n.Send(0, 4, 0, 8, 0, func(sim.Time) { t.Fatal("delivered through a 100%-loss network") })
	eng.At(1<<40, func() {
		for _, p := range n.procs {
			p.Wake(1 << 40)
		}
	})
	if err := eng.Run(); err == nil {
		t.Fatal("expected an undeliverable-message error")
	}
}
