// Package cache gives the call-graph tests a small, closed world: an
// interface with two implementations, static calls, and a method value.
package cache

type Store interface{ Get(k int) int }

type MapStore struct{ m map[int]int }

func (s *MapStore) Get(k int) int { return s.m[k] }

type SliceStore struct{ xs []int }

func (s *SliceStore) Get(k int) int { return s.xs[k] }

// UseIface dispatches through the interface: CHA resolves the call to
// every visible implementation.
func UseIface(s Store) int { return s.Get(1) }

// UseStatic calls one concrete method.
func UseStatic(s *MapStore) int { return s.Get(2) }

// Bind is a method value: the bound method may run later, so it is an
// edge even without a call.
func Bind(s *MapStore) func(int) int { return s.Get }

// Dyn calls through a function value: it resolves to no target.
func Dyn(f func(int) int) int { return f(3) }
