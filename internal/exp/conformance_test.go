package exp

import (
	"math/rand"
	"testing"

	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/msg"

	"mgs/internal/vm"
)

// TestProtocolConformance runs one deterministic, data-race-free random
// workload under every protocol variant — invalidate, update, no
// single-writer, serial and parallel invalidations, message jitter,
// home migration — and requires the final shared-memory contents to be
// bit-identical across all of them. Timing may differ arbitrarily;
// answers may not.
func TestProtocolConformance(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*harness.Config)
	}{
		{"default", func(*harness.Config) {}},
		{"no-singlewriter", func(c *harness.Config) { c.Protocol.SingleWriter = false }},
		{"parallel-inv", func(c *harness.Config) { c.Protocol.SerialInv = false }},
		{"update", func(c *harness.Config) { c.Protocol.UpdateProtocol = true }},
		{"jitter", func(c *harness.Config) { c.Msg.Jitter = 2000; c.Msg.JitterSeed = 11 }},
		{"update-jitter", func(c *harness.Config) {
			c.Protocol.UpdateProtocol = true
			c.Msg.Jitter = 2000
			c.Msg.JitterSeed = 12
		}},
		{"migration", func(c *harness.Config) { c.Protocol.MigrateAfter = 3 }},
		{"lazy", func(c *harness.Config) { c.Protocol.LazyRelease = true }},
		{"lazy-jitter", func(c *harness.Config) {
			c.Protocol.LazyRelease = true
			c.Msg.Jitter = 2000
			c.Msg.JitterSeed = 17
		}},
		{"mesh", func(c *harness.Config) { c.Msg.Topology = msg.NewMesh2D(); c.Msg.InterPerHop = 250 }},
		{"mesh-jitter", func(c *harness.Config) {
			c.Msg.Topology = msg.NewMesh2D()
			c.Msg.InterPerHop = 400
			c.Msg.Jitter = 1500
			c.Msg.JitterSeed = 13
		}},
		{"pagesize-512", func(c *harness.Config) { c.PageSize = 512 }},
		{"pagesize-2048", func(c *harness.Config) { c.PageSize = 2048 }},
	}

	run := func(mut func(*harness.Config)) []uint64 { return conformanceRun(t, mut) }

	ref := run(variants[0].mut)
	for _, v := range variants[1:] {
		got := run(v.mut)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s: word %d = %#x, default = %#x", v.name, i, got[i], ref[i])
				break
			}
		}
	}
}

// conformanceRun executes the shared random conformance workload (P=8,
// C=2, data-race-free slot writes plus a lock-protected counter) on a
// machine mutated by mut and returns the final shared-memory words.
func conformanceRun(t *testing.T, mut func(*harness.Config)) []uint64 {
	t.Helper()
	const p, c, npages, slots, steps = 8, 2, 4, 8, 50
	cfg := harness.NewConfig(p, c)
	mut(&cfg)
	m := harness.NewMachine(cfg)
	base := m.DSM.Space().AllocPages(npages * 4096) // independent of page size
	slotVA := func(proc, slot int) vm.Addr {
		return base + vm.Addr((slot*p+proc)*8)
	}
	_, err := m.Run(func(ctx *harness.Ctx) {
		rng := rand.New(rand.NewSource(int64(1000 + ctx.ID)))
		for s := 0; s < steps; s++ {
			slot := rng.Intn(slots)
			v := rng.Uint64()
			// Own slots only (DRF); occasional reads of others'.
			ctx.StoreI64(slotVA(ctx.ID, slot), int64(v))
			if rng.Intn(4) == 0 {
				ctx.Fence()
			}
			if rng.Intn(3) == 0 {
				ctx.LoadI64(slotVA(rng.Intn(p), rng.Intn(slots)))
			}
			if rng.Intn(9) == 0 {
				ctx.Acquire(5)
				ctx.StoreI64(base+vm.Addr(npages*4096-8),
					ctx.LoadI64(base+vm.Addr(npages*4096-8))+1)
				ctx.Release(5)
			}
		}
		ctx.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for proc := 0; proc < p; proc++ {
		for slot := 0; slot < slots; slot++ {
			out = append(out, m.DSM.BackdoorLoad64(slotVA(proc, slot)))
		}
	}
	out = append(out, m.DSM.BackdoorLoad64(base+vm.Addr(npages*4096-8)))
	return out
}

// TestConformanceFaultCrossProduct crosses the main protocol variants
// with fault injection: default, update, and lazy-release protocols each
// run fault-free and under a 5% message-drop plan (the reliable
// transport retransmits), and all six final memory images must be
// bit-identical. This closes the gap between the conformance suite
// (variants, no faults) and the chaos suite (faults, default variant
// only): faults may change when the protocol acts, never what memory
// holds — regardless of which variant is running. The same machinery
// backs ZeroFaultEquivalence; here the attached plan is hostile instead
// of empty.
func TestConformanceFaultCrossProduct(t *testing.T) {
	protocols := []struct {
		name string
		mut  func(*harness.Config)
	}{
		{"default", func(*harness.Config) {}},
		{"update", func(c *harness.Config) { c.Protocol.UpdateProtocol = true }},
		{"lazy", func(c *harness.Config) { c.Protocol.LazyRelease = true }},
	}
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"no-fault", fault.Plan{}},
		{"drop5", fault.Plan{Seed: 42, DropBP: 500}},
	}

	ref := conformanceRun(t, protocols[0].mut)
	for _, pr := range protocols {
		for _, pl := range plans {
			pr, pl := pr, pl
			t.Run(pr.name+"/"+pl.name, func(t *testing.T) {
				got := conformanceRun(t, func(c *harness.Config) {
					pr.mut(c)
					c.Fault = pl.plan
				})
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("word %d = %#x, fault-free default = %#x", i, got[i], ref[i])
					}
				}
			})
		}
	}
}
