package harness

import (
	"testing"

	"mgs/internal/vm"
)

// homedAddr allocates two pages and returns an address on a page whose
// interleaved home is processor 0, so proc 0's accesses are SSMP-local
// after the first fault.
func homedAddr(m *Machine) vm.Addr {
	va := m.Alloc(2 * m.Cfg.PageSize)
	if int(m.DSM.Space().PageOf(va))%m.Cfg.P != 0 {
		va += vm.Addr(m.Cfg.PageSize)
	}
	return va
}

// BenchmarkAccessFastPath measures one simulated shared-memory load on
// the hit path — software TLB hit, hardware cache hit — through the full
// harness.Ctx → core.System.Access → cache.Domain stack. This is the
// instruction the simulator executes ~10⁷ times per second in a sweep;
// the fast-path invariant is 0 allocs/op.
func BenchmarkAccessFastPath(b *testing.B) {
	m := NewMachine(NewConfig(2, 1))
	va := homedAddr(m)
	b.ReportAllocs()
	if _, err := m.RunPer(func(i int) func(c *Ctx) {
		if i != 0 {
			return func(*Ctx) {}
		}
		return func(c *Ctx) {
			c.LoadI64(va) // fault, replicate, fill the TLB
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				c.LoadI64(va)
			}
			b.StopTimer()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessWritePath measures the store hit path (TLB write
// privilege held, line Modified in the local cache).
func BenchmarkAccessWritePath(b *testing.B) {
	m := NewMachine(NewConfig(2, 1))
	va := homedAddr(m)
	b.ReportAllocs()
	if _, err := m.RunPer(func(i int) func(c *Ctx) {
		if i != 0 {
			return func(*Ctx) {}
		}
		return func(c *Ctx) {
			c.StoreI64(va, 1)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				c.StoreI64(va, int64(k))
			}
			b.StopTimer()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// TestAccessHitPathDoesNotAllocate keeps BenchmarkAccessFastPath's
// 0 allocs/op inside go test: the cache domain allocates a processor's
// tag and state arrays on its first access, and nothing after that. Two
// loop lengths are compared so the first access, the fault and the
// machine cancel.
func TestAccessHitPathDoesNotAllocate(t *testing.T) {
	loads := func(n int) {
		m := NewMachine(NewConfig(2, 1))
		va := homedAddr(m)
		if _, err := m.RunPer(func(i int) func(c *Ctx) {
			if i != 0 {
				return func(*Ctx) {}
			}
			return func(c *Ctx) {
				for k := 0; k < n; k++ {
					c.LoadI64(va)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	few := testing.AllocsPerRun(5, func() { loads(100) })
	many := testing.AllocsPerRun(5, func() { loads(10100) })
	if many-few >= 10 {
		t.Fatalf("a cache-hit load allocates: %.0f allocations for 100 loads, %.0f for 10100", few, many)
	}
}
