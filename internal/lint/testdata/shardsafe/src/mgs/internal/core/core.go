// Package core exercises the cross-package leg of shardsafe: the
// Unguarded facts msync exports are checked at call sites here.
package core

import (
	"mgs/internal/msync"
)

// Flush calls Deposit bare. Deposit's own package silenced the local
// report with an allow because the API contract puts the guard on the
// caller — which is exactly what this diagnostic enforces.
func Flush(s *msync.System) {
	s.Deposit(1, 2) // want `write to msync\.System\.locks \(//mgs:guardedby Mu\) without Mu\.Lock\(\) held on the path from core\.Flush.*via msync\.\(System\)\.Deposit`
}

// FlushLocked honors the contract: the guard is held by type+field, so
// the imported residual is discharged.
func FlushLocked(s *msync.System) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	s.Deposit(3, 4)
}

// flushInner leaves the guard to ITS caller in turn; Drain discharges
// it, so neither line is a finding.
func flushInner(s *msync.System) {
	s.Deposit(5, 6)
}

func Drain(s *msync.System) {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	flushInner(s)
}

// Fast carries a directive outside the grammar — nothing is valid on a
// function declaration — and is told so rather than silently enforcing
// nothing.
//
//mgs:noalloc // want `misplaced //mgs: directive \(must be in the doc comment of a type or struct field\)`
func Fast() {}
