package exp

import (
	"testing"

	"mgs/internal/harness"
	"mgs/internal/vm"
)

// TestHistogramShadow replays the customapp example's failing shape
// with shadow checks on every locked update.
func TestHistogramShadow(t *testing.T) {
	const items, buckets, p, c = 2048, 32, 8, 2
	cfg := harness.NewConfig(p, c)
	m := harness.NewMachine(cfg)
	val := func(i int) int64 { return int64((i*2654435761 + 12345) % 997) }
	data := m.DSM.Space().AllocPages(items * 8)
	m.FillWords(data, items, func(i int) uint64 { return uint64(val(i)) })
	bins := m.DSM.Space().AllocPages(buckets * 8)
	shadow := make([]int64, buckets)
	_, err := m.Run(func(ctx *harness.Ctx) {
		per := items / ctx.NProcs
		lo := ctx.ID * per
		for i := lo; i < lo+per; i++ {
			v := ctx.LoadI64(data + vm.Addr(i*8))
			b := int(v) * buckets / 997
			addr := bins + vm.Addr(b*8)
			ctx.Acquire(1 + b)
			got := ctx.LoadI64(addr)
			if got != shadow[b] {
				t.Errorf("clk=%d proc=%d bucket %d: read %d shadow %d", ctx.Clock(), ctx.ID, b, got, shadow[b])
			}
			shadow[b] = got + 1
			ctx.StoreI64(addr, got+1)
			ctx.Release(1 + b)
		}
		ctx.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < buckets; b++ {
		if got := m.GetI64(bins + vm.Addr(b*8)); got != shadow[b] {
			t.Errorf("bucket %d home=%d shadow=%d", b, got, shadow[b])
		}
	}
}
