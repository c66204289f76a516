package exp

import (
	"math/rand"
	"testing"

	"mgs/internal/core"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/vm"
)

// TestProtocolConformance runs one deterministic, data-race-free random
// workload under every protocol variant core.Variants names, plain and
// under message jitter, and on the mesh and at other page sizes, and
// requires the final shared-memory contents to be bit-identical across
// all of them. Timing may differ arbitrarily; answers may not.
func TestProtocolConformance(t *testing.T) {
	type row struct {
		name string
		mut  func(*harness.Config)
	}
	var rows []row
	for i, nv := range core.Variants() {
		nv, seed := nv, uint64(11+i)
		rows = append(rows,
			row{nv.Name, func(c *harness.Config) { c.Variant = nv.Variant }},
			row{nv.Name + "-jitter", func(c *harness.Config) {
				c.Variant = nv.Variant
				c.Msg.Jitter = 2000
				c.Msg.JitterSeed = seed
			}})
	}
	rows = append(rows,
		row{"mesh", func(c *harness.Config) { c.Msg.Topology = msg.NewMesh2D(); c.Msg.InterPerHop = 250 }},
		row{"mesh-jitter", func(c *harness.Config) {
			c.Msg.Topology = msg.NewMesh2D()
			c.Msg.InterPerHop = 400
			c.Msg.Jitter = 1500
			c.Msg.JitterSeed = 13
		}},
		row{"pagesize-512", func(c *harness.Config) { c.PageSize = 512 }},
		row{"pagesize-2048", func(c *harness.Config) { c.PageSize = 2048 }},
	)

	ref := conformanceRun(t, rows[0].mut) // core.Variants lists the default first
	for _, r := range rows[1:] {
		got := conformanceRun(t, r.mut)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s: word %d = %#x, default = %#x", r.name, i, got[i], ref[i])
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

// TestConformanceFaultCrossProduct crosses every protocol variant
// core.Variants names with fault injection: each runs fault-free and
// under a 5% message-drop plan (the reliable transport retransmits), and
// all final memory images must be bit-identical. This closes the gap
// between the conformance suite (variants, no faults) and the chaos
// suite (faults, default variant only): faults may change when the
// protocol acts, never what memory holds — regardless of which variant
// is running. The same machinery backs ZeroFaultEquivalence; here the
// attached plan is hostile instead of empty.
func TestConformanceFaultCrossProduct(t *testing.T) {
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"no-fault", fault.Plan{}},
		{"drop5", fault.Plan{Seed: 42, DropBP: 500}},
	}

	ref := conformanceRun(t, func(*harness.Config) {})
	for _, nv := range core.Variants() {
		for _, pl := range plans {
			nv, pl := nv, pl
			t.Run(nv.Name+"/"+pl.name, func(t *testing.T) {
				got := conformanceRun(t, func(c *harness.Config) {
					c.Variant = nv.Variant
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
