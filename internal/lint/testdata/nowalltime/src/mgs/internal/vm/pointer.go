package vm

import (
	"fmt"
	"unsafe"
)

type frame struct{ id int }

// AddrKey turns an address into a number: it differs run to run, so
// anything keyed, ordered or charged by it does too.
func AddrKey(f *frame) uintptr {
	return uintptr(unsafe.Pointer(f)) // want `uintptr\(unsafe\.Pointer\) turns an address into a value`
}

// AddrLabel prints an address.
func AddrLabel(f *frame) string {
	return fmt.Sprintf("frame@%p", f) // want `fmt\.Sprintf with %p prints an address`
}

// IDLabel prints the frame's own identity; sizes and plain conversions
// stay legal.
func IDLabel(f *frame) string {
	return fmt.Sprintf("frame#%d/%d", f.id, uintptr(unsafe.Sizeof(*f)))
}
