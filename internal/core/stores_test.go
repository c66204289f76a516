package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"mgs/internal/cache"
	"mgs/internal/mem"
)

// span is the host memory a carved slice may reach: its first byte and
// one past its capacity.
type span struct{ lo, hi uintptr }

// spanOf returns the span of slice value v (cap, not len: a carve that
// leaves spare capacity reaches its neighbour through append).
func spanOf(v reflect.Value) span {
	lo := v.Pointer()
	return span{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size()}
}

// dirSpans returns the spans of d's two line arrays.
func dirSpans(d *cache.Dir) [2]span {
	v := reflect.ValueOf(d).Elem()
	return [2]span{spanOf(v.FieldByName("sharers")), spanOf(v.FieldByName("owner"))}
}

// firstOther returns the index of the first byte of data that is not b,
// or -1 if there is none.
func firstOther(data []byte, b byte) int {
	if bytes.Count(data, []byte{b}) == len(data) {
		return -1
	}
	return slices.IndexFunc(data, func(x byte) bool { return x != b })
}

// FuzzPageStores draws frames and directories, fresh and recycled,
// for two SSMPs that share one machine's stores as core.New wires
// them, under any interleaving of allocation, writes and retirement,
// and requires every frame or directory drawn to be what a fresh one
// is: a frame of all zeros with len == cap == the page size, a
// directory reflect.DeepEqual to one carved from a fresh store at the
// same cluster size, so of the same sharer-set width; and no
// two live ones to share a byte. The first byte picks the page and
// line size and the cluster size; then each three-byte step is, on
// SSMP op&1: allocate a frame (filled at once with a byte its own, so
// an overlap shows as a changed byte), allocate a directory at home
// a, write a directory by an access of processor a to byte b of a live
// frame registered to it, clean a page, or retire a frame and a
// directory together as teardown does (cleaned first or not). A frame
// whose bytes another draw or write reached would no longer read its
// fill byte: each step checks the frame it drew, wrote a directory for
// or retired, and the end of the script checks every live frame.
func FuzzPageStores(f *testing.F) {
	const maxSteps = 300
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 1 {
			return
		}
		script = script[:min(len(script), 1+3*maxSteps)]
		line := 16 << (script[0] & 1)
		pageSize := line << (script[0] >> 1 & 7)
		csize := 1 + int(script[0]>>4)
		params := cache.Params{LineSize: line, CacheBytes: 4 * line, HWPointers: 2}

		var lines cache.Store
		var frames mem.Store
		type page struct {
			f    *mem.Frame
			fill byte
		}
		type ssmp struct {
			ss    *ssmpState
			pages []page
			dirs  []*cache.Dir
		}
		var ssmps [2]ssmp
		// fresh[home] is a directory as a fresh store carves it.
		fresh := make([]*cache.Dir, csize)
		freshDom := new(cache.Store).Domain(0, csize, pageSize, params, cache.Costs{})
		for i := range ssmps {
			base := uint64(i) << mem.RegionBits
			ssmps[i].ss = &ssmpState{
				id:     i,
				domain: lines.Domain(base, csize, pageSize, params, cache.Costs{}),
				frames: frames.Allocator(base, pageSize),
			}
		}
		// live is the span of every live frame and directory array,
		// taken when it was drawn.
		type owned struct {
			s     span
			frame *mem.Frame // nil for a directory's
			dir   *cache.Dir // nil for a frame's
		}
		var live []owned
		// draw requires s to share no byte with any live frame or
		// directory, then records it as o's.
		draw := func(step int, o owned) {
			for _, l := range live {
				if l.s.lo < o.s.hi && o.s.lo < l.s.hi {
					if l.frame != nil {
						t.Fatalf("step %d: a new frame or directory shares bytes with live frame %#x", step, l.frame.ID)
					}
					t.Fatalf("step %d: a new frame or directory shares bytes with a live directory", step)
				}
			}
			live = append(live, o)
		}
		// filled requires p's frame to read its fill byte throughout.
		filled := func(step int, p page) {
			if j := firstOther(p.f.Data, p.fill); j >= 0 {
				t.Fatalf("step %d: live frame %#x has Data[%d] = %d, written %d: another frame shares its bytes", step, p.f.ID, j, p.f.Data[j], p.fill)
			}
		}
		var fill byte
		k := 1
		for ; k+2 < len(script); k += 3 {
			step, op, a, b := k/3, script[k], int(script[k+1]), int(script[k+2])
			m := &ssmps[op&1]
			ss := m.ss
			switch op >> 1 % 5 {
			case 0:
				fr := ss.frames.Alloc()
				if len(fr.Data) != pageSize || cap(fr.Data) != pageSize {
					t.Fatalf("step %d: frame %#x has len %d, cap %d; want both %d", step, fr.ID, len(fr.Data), cap(fr.Data), pageSize)
				}
				if i := firstOther(fr.Data, 0); i >= 0 {
					t.Fatalf("step %d: frame %#x drawn with Data[%d] = %d, want a zeroed frame", step, fr.ID, i, fr.Data[i])
				}
				draw(step, owned{s: spanOf(reflect.ValueOf(fr.Data)), frame: fr})
				fill++
				for i := range fr.Data {
					fr.Data[i] = fill
				}
				m.pages = append(m.pages, page{fr, fill})
			case 1:
				home := a % csize
				d := ss.newDir(home)
				if fresh[home] == nil {
					fresh[home] = freshDom.NewDir(home)
				}
				if want := fresh[home]; !reflect.DeepEqual(d, want) {
					t.Fatalf("step %d: directory drawn as %+v, want %+v", step, *d, *want)
				}
				for _, s := range dirSpans(d) {
					draw(step, owned{s: s, dir: d})
				}
				m.dirs = append(m.dirs, d)
			case 2, 3:
				if len(m.pages) == 0 || len(m.dirs) == 0 {
					continue
				}
				p, d := m.pages[a%len(m.pages)], m.dirs[b%len(m.dirs)]
				ss.domain.Register(p.f, d)
				if op>>1%5 == 2 {
					ss.domain.Access(a%csize, p.f, d, b%pageSize, a&1 != 0)
				} else {
					ss.domain.CleanPage(p.f, d)
				}
				filled(step, p)
			case 4:
				if len(m.pages) == 0 || len(m.dirs) == 0 {
					continue
				}
				i, j := a%len(m.pages), b%len(m.dirs)
				p, d := m.pages[i], m.dirs[j]
				if a&1 != 0 {
					ss.domain.CleanPage(p.f, d)
				}
				filled(step, p)
				live = slices.DeleteFunc(live, func(l owned) bool { return l.frame == p.f || l.dir == d })
				ss.domain.Unregister(p.f)
				ss.retire(p.f, d)
				m.pages = append(m.pages[:i], m.pages[i+1:]...)
				m.dirs = append(m.dirs[:j], m.dirs[j+1:]...)
			}
		}
		for i := range ssmps {
			for _, p := range ssmps[i].pages {
				filled(k/3, p)
			}
		}
	})
}
