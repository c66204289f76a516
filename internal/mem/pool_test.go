package mem

import (
	"encoding/binary"
	"testing"
)

// FuzzPool drives a Pool of each kind of value the machine recycles, a
// page buffer ([]byte, carved from Blocks) and a record pointer (carved
// from a Slab), through any interleaving of Gets and Puts, against a
// stack. Each input byte is one step: an even byte Gets, and an odd one
// Puts back the live value it names (byte/2 mod the live count). A Get
// must hit exactly when the stack holds a value and then hand back the
// top one, the last put; on a miss the step carves a fresh value. The
// counts must equal the misses and the hits after every step. Every
// value handed out is stamped with a number of its own, so the values
// must keep their stamps: two live values that shared memory, or a live
// value that shared it with a pooled one, would overwrite each other.
func FuzzPool(f *testing.F) {
	f.Fuzz(func(t *testing.T, steps []byte) {
		var pages Blocks[byte]
		fuzzPool(t, steps, func() []byte { return pages.Carve(8, 64) },
			func(b []byte, n uint64) { binary.LittleEndian.PutUint64(b, n) },
			func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) })
		var records Slab[uint64]
		fuzzPool(t, steps, records.New,
			func(p *uint64, n uint64) { *p = n },
			func(p *uint64) uint64 { return *p })
	})
}

// fuzzPool runs one script of steps against a Pool[T]: fresh carves a
// value, stamp writes a number into one and read reads it back.
func fuzzPool[T any](t *testing.T, steps []byte, fresh func() T, stamp func(T, uint64), read func(T) uint64) {
	var (
		p      Pool[T]
		pooled []uint64 // the stamps of the values put back, last on top
		live   []T      // the values handed out and not put back
		stamps []uint64 // their stamps
		want   Counts
	)
	for i, op := range steps {
		if op%2 == 0 {
			v, ok := p.Get()
			if ok != (len(pooled) > 0) {
				t.Fatalf("step %d: Get reported a hit = %v with %d values put back", i, ok, len(pooled))
			}
			if ok {
				top := pooled[len(pooled)-1]
				pooled = pooled[:len(pooled)-1]
				if got := read(v); got != top {
					t.Fatalf("step %d: Get handed back the value stamped %d, want %d, the last one put", i, got, top)
				}
				want.Reused++
			} else {
				v = fresh()
				want.Carved++
			}
			stamp(v, uint64(i+1))
			live, stamps = append(live, v), append(stamps, uint64(i+1))
		} else if len(live) > 0 {
			j := int(op/2) % len(live)
			p.Put(live[j])
			pooled = append(pooled, stamps[j])
			live, stamps = append(live[:j], live[j+1:]...), append(stamps[:j], stamps[j+1:]...)
		}
		if got := p.Counts; got != want {
			t.Fatalf("step %d: counts %+v, want %+v", i, got, want)
		}
		for j, v := range live {
			if got := read(v); got != stamps[j] {
				t.Fatalf("step %d: the live value stamped %d reads %d: it shares memory with another", i, stamps[j], got)
			}
		}
	}
}
