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
// line array on its first access, and nothing after that. Two
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

// TestWriteSharingDoesNotAllocate is the protocol's steady state held to
// the same standard: two SSMPs of two processors read and write two
// pages under one lock, so every round runs the whole message
// vocabulary (REQ/DATA, UPGRADE/UP_ACK/WNOTIFY, REL, INV, PINV/PINV_ACK,
// the DIFF/1WDATA replies, RACK), the lock's hand-offs inside and
// between SSMPs, twins and diffs, page-table-lock waits, and a
// torn-down copy's frame and directory going back for the next fetch.
// Messages, lock continuations and buffers are recycled records, so ten
// times the rounds must not cost more allocations — under the default
// token lock and under MCS. (The one-entry TLB makes every round evict:
// the TLB's FIFO gains an entry per re-fill of an invalidated mapping
// and only evictions consume them.)
//
// Not under -race: the race runtime's sync.Pool drops a random quarter
// of its Puts, so each run's fmt calls (Result.Counters formats every
// counter) allocate a random number of printers, and two runs' counts
// differ by more than the bound with no allocation per round.
func TestWriteSharingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are random under the race runtime's sync.Pool")
	}
	for _, lock := range []string{"token", "mcs"} {
		rounds := func(n int) {
			m := NewMachine(NewConfig(4, 2, WithLockAlgo(lock), WithTLBSize(1)))
			va := m.Alloc(2 * m.Cfg.PageSize)
			slot := va + vm.Addr(m.Cfg.PageSize)
			if _, err := m.RunPer(func(i int) func(c *Ctx) {
				return func(c *Ctx) {
					for k := 0; k < n; k++ {
						c.Acquire(0)
						c.StoreI64(va, c.LoadI64(va)+1)
						c.StoreI64(slot+8*vm.Addr(i), int64(k))
						c.Release(0)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
			if got := m.GetI64(va); got != int64(4*n) {
				t.Fatalf("%s lock, %d rounds: counter %d, want %d", lock, n, got, 4*n)
			}
		}
		few := testing.AllocsPerRun(1, func() { rounds(300) })
		many := testing.AllocsPerRun(1, func() { rounds(3000) })
		if many-few >= 10 {
			t.Errorf("%s lock: write-sharing allocates per round: %.0f allocations for 300 rounds, %.0f for 3000", lock, few, many)
		}
	}
}
