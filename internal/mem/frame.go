// Package mem models physical page frames and the host memory of the
// simulator's records: Blocks, Slab and Store carve them, Pool recycles them.
//
// A Frame is the unit of physical memory the MGS protocol replicates
// between SSMPs: the home SSMP holds the home copy, and each client SSMP
// that has requested the page holds its own Frame whose contents really
// diverge between release points. Twins (for multiple-writer diffing)
// are byte snapshots of Frames.
//
// All word accessors use little-endian byte order and must be naturally
// aligned; they are the raw storage behind the simulated Load/Store
// instructions, so they are deliberately small and allocation-free.
package mem

import "encoding/binary"

// Frame is one physical page frame. ID is a machine-wide unique physical
// frame number (the simulator's stand-in for a physical page address);
// caches tag lines with it.
type Frame struct {
	ID   uint64
	Data []byte
}

// NewFrame allocates a zeroed frame of the given page size.
func NewFrame(id uint64, pageSize int) *Frame {
	return &Frame{ID: id, Data: make([]byte, pageSize)}
}

// Load64 reads the 8-byte word at byte offset off.
//
// Must not allocate: pinned by TestFrameAccessZeroAllocs.
func (f *Frame) Load64(off int) uint64 {
	return binary.LittleEndian.Uint64(f.Data[off : off+8])
}

// Store64 writes the 8-byte word at byte offset off.
//
// Must not allocate: pinned by TestFrameAccessZeroAllocs.
func (f *Frame) Store64(off int, v uint64) {
	binary.LittleEndian.PutUint64(f.Data[off:off+8], v)
}

// CopyFrom overwrites the frame's contents with src (a DMA page
// transfer). src must be exactly one page.
//
// Must not allocate: pinned by TestFrameAccessZeroAllocs.
func (f *Frame) CopyFrom(src []byte) {
	if len(src) != len(f.Data) {
		panic("mem: page size mismatch in CopyFrom")
	}
	copy(f.Data, src)
}
