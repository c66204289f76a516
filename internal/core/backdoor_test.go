package core

import "mgs/internal/vm"

// BackdoorStore64 writes v at va's home copy with no simulated cost.
func (s *System) BackdoorStore64(va vm.Addr, v uint64) {
	f, off := s.BackdoorFrame(va)
	f.Store64(off, v)
}

// BackdoorLoad64 reads va's home copy with no simulated cost.
func (s *System) BackdoorLoad64(va vm.Addr) uint64 {
	f, off := s.BackdoorFrame(va)
	return f.Load64(off)
}
