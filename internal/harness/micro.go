package harness

import (
	"fmt"
	"strings"

	"mgs/internal/sim"
	"mgs/internal/vm"
)

// Micro holds the Table 3 shared-memory costs. The hardware and
// translation groups are configuration inputs (the paper measured its
// hardware; we parameterize it); the software group is measured by
// running the corresponding operation through the full protocol stack
// on a 0-delay machine with 1K-byte pages, as the paper did.
type Micro struct {
	// Hardware shared memory (configured).
	CacheLocal, CacheRemote, Cache2P, Cache3P, RemoteSW sim.Time
	// Software virtual memory (configured).
	TransArray, TransPtr sim.Time
	// Software shared memory (measured, marginal over a cache hit).
	TLBFill   sim.Time
	ReadMiss  sim.Time
	WriteMiss sim.Time
	Release1W sim.Time
	Release2W sim.Time
}

// PaperMicro is Table 3 as published (20 MHz Alewife, 1K pages, 0-cycle
// inter-SSMP delay).
var PaperMicro = Micro{
	CacheLocal: 11, CacheRemote: 38, Cache2P: 42, Cache3P: 63, RemoteSW: 425,
	TransArray: 18, TransPtr: 24,
	TLBFill: 1037, ReadMiss: 6982, WriteMiss: 16331,
	Release1W: 14226, Release2W: 32570,
}

// microConfig is the Table 3 measurement machine: 0-cycle LAN delay.
func microConfig(p, c int) Config {
	return NewConfig(p, c, WithInterSSMPDelay(0))
}

// MeasureMicro reproduces Table 3 on the current cost calibration.
func MeasureMicro() Micro {
	cfg := NewConfig(2, 1)
	mi := Micro{
		CacheLocal:  cfg.Cache.Local,
		CacheRemote: cfg.Cache.Remote,
		Cache2P:     cfg.Cache.TwoParty,
		Cache3P:     cfg.Cache.ThreeParty,
		RemoteSW:    cfg.Cache.Software,
		TransArray:  cfg.Protocol.TransArray,
		TransPtr:    cfg.Protocol.TransPtr,
	}
	mi.TLBFill = measureTLBFill()
	mi.ReadMiss = measureMiss(false)
	mi.WriteMiss = measureMiss(true)
	mi.Release1W = measureRelease(1)
	mi.Release2W = measureRelease(2)
	return mi
}

// hitCost is the cost of a translated cache-hit access, subtracted so
// the software numbers are the marginal protocol costs.
func hitCost(cfg Config) sim.Time { return cfg.Protocol.TransArray + cfg.Cache.Hit }

// allocHomedAt reserves a page whose home is the given processor.
func allocHomedAt(m *Machine, proc int) vm.Addr {
	for {
		va := m.Alloc(m.Cfg.PageSize)
		if m.DSM.Space().HomeProc(m.DSM.Space().PageOf(va)) == proc {
			return va
		}
	}
}

// measureTLBFill: processor 1 touches a page its SSMP already maps
// (transition 1: a pure software TLB fill from the local page table).
// The protocol runs only at C < P, so the machine is two SSMPs of two
// processors; processors 2 and 3 stay idle, so no other SSMP's traffic
// reaches the timed fill.
func measureTLBFill() sim.Time {
	cfg := microConfig(4, 2)
	m := NewMachine(cfg)
	va := allocHomedAt(m, 0)
	var fill sim.Time
	_, err := m.RunPer(func(i int) func(*Ctx) {
		switch i {
		case 0:
			return func(c *Ctx) { c.LoadF64(va) } // maps the page
		case 2, 3:
			return nil
		}
		return func(c *Ctx) {
			c.Proc.Sleep(1_000_000)
			c.Proc.Advance(0) // absorb any handler debt before timing
			t0 := c.Clock()
			c.LoadF64(va)
			fill = c.Clock() - t0 - hitCost(cfg)
		}
	})
	if err != nil {
		panic(err)
	}
	return fill
}

// measureMiss: processor 1 (its own SSMP) faults on a page homed at
// processor 0's SSMP — the full inter-SSMP replication path.
func measureMiss(write bool) sim.Time {
	cfg := microConfig(2, 1)
	m := NewMachine(cfg)
	va := allocHomedAt(m, 0)
	var cost sim.Time
	_, err := m.RunPer(func(i int) func(*Ctx) {
		if i == 0 {
			return func(c *Ctx) {}
		}
		return func(c *Ctx) {
			c.Proc.Advance(0)
			t0 := c.Clock()
			if write {
				c.StoreF64(va, 1)
			} else {
				c.LoadF64(va)
			}
			cost = c.Clock() - t0 - hitCost(cfg)
		}
	})
	if err != nil {
		panic(err)
	}
	return cost
}

// measureRelease: writers dirty the page; processor 1 then performs the
// release and we time the DUQ flush (REL through RACK).
func measureRelease(writers int) sim.Time {
	cfg := microConfig(writers+1, 1)
	m := NewMachine(cfg)
	va := allocHomedAt(m, 0)
	var cost sim.Time
	_, err := m.RunPer(func(i int) func(*Ctx) {
		switch {
		case i == 0:
			return func(c *Ctx) {}
		case i == 1:
			return func(c *Ctx) {
				c.StoreF64(va, 1)
				c.Proc.Sleep(1_000_000) // let other writers dirty it too
				c.Proc.Advance(0)
				t0 := c.Clock()
				c.Fence()
				cost = c.Clock() - t0
			}
		default:
			return func(c *Ctx) {
				c.StoreF64(va+8*vm.Addr(c.ID), float64(c.ID))
			}
		}
	})
	if err != nil {
		panic(err)
	}
	return cost
}

// String renders the table in the paper's layout with the paper column
// alongside.
func (mi Micro) String() string {
	var b strings.Builder
	row := func(name string, got, paper sim.Time) {
		fmt.Fprintf(&b, "  %-32s %8d %10d\n", name, got, paper)
	}
	b.WriteString("Table 3: Shared Memory Costs (cycles)        this run      paper\n")
	b.WriteString("Hardware Shared Memory\n")
	row("Cache Miss Local", mi.CacheLocal, PaperMicro.CacheLocal)
	row("Cache Miss Remote", mi.CacheRemote, PaperMicro.CacheRemote)
	row("Cache Miss 2-party", mi.Cache2P, PaperMicro.Cache2P)
	row("Cache Miss 3-party", mi.Cache3P, PaperMicro.Cache3P)
	row("Remote Software", mi.RemoteSW, PaperMicro.RemoteSW)
	b.WriteString("Software Virtual Memory\n")
	row("Distributed Array Translation", mi.TransArray, PaperMicro.TransArray)
	row("Pointer Translation", mi.TransPtr, PaperMicro.TransPtr)
	b.WriteString("Software Shared Memory\n")
	row("TLB Fill", mi.TLBFill, PaperMicro.TLBFill)
	row("Inter-SSMP Read Miss", mi.ReadMiss, PaperMicro.ReadMiss)
	row("Inter-SSMP Write Miss", mi.WriteMiss, PaperMicro.WriteMiss)
	row("Release (1 writer)", mi.Release1W, PaperMicro.Release1W)
	row("Release (2 writers)", mi.Release2W, PaperMicro.Release2W)
	return b.String()
}
