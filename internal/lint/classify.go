// Package lint is mgslint: a suite of static analyzers that enforce the
// simulator's determinism invariants at vet time.
//
// The contract being enforced is the one stated at the top of
// internal/sim/engine.go: runs are bit-for-bit reproducible because
// nothing on the simulated path touches the Go scheduler, wall-clock
// time, or map iteration order. The analyzers turn that comment into
// machine-checked rules; see DESIGN.md §"Static invariants" for the
// full policy. There is no suppression comment: a diagnostic is fixed
// in the code, or the rule is changed in the analyzer that owns it.
package lint

import "strings"

// deterministicPkgs names the packages whose code executes on the
// simulated path (engine events or Proc bodies). Everything in these
// packages must be deterministic: no wall-clock time, no global
// randomness, no goroutines or channels beyond nogoroutine's
// sanctioned sites, no map-iteration-order dependence.
//
// Host-side packages (harness, exp, stats, cli, framework, cmd/*) drive
// simulations and may use host facilities — with two exceptions:
// harness's sweep worker pool, which nogoroutine also watches (see
// scopeNoGoroutine), and the sources of nondeterminism banned from
// every package whose output is promised reproducible (see
// scopeSourceBans).
var deterministicPkgs = map[string]bool{
	"sim":        true,
	"core":       true,
	"vm":         true,
	"mem":        true,
	"msg":        true,
	"msync":      true,
	"apps":       true,
	"cache":      true,
	"fault":      true,
	"obs":        true, // sinks fire from engine context; see internal/obs
	"check":      true, // spec Feed and Chooser.Choose fire from engine context
	"serve":      true, // store ops run in Proc bodies; trace generation is host-side but seeded
	"msync/algo": true, // lock/barrier algorithms run in proc and handler context
}

// canonicalPath strips go vet's test-variant suffix: the package
// "mgs/internal/sim [mgs/internal/sim.test]" is classified like
// "mgs/internal/sim".
func canonicalPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// internalPkg returns the path suffix following the last "internal"
// element ("mgs/internal/sim" → "sim", "mgs/internal/msync/algo" →
// "msync/algo"), or "" when the path has no "internal" element — so
// sub-packages classify by their full internal-relative path.
func internalPkg(path string) string {
	segs := strings.Split(canonicalPath(path), "/")
	for i := len(segs) - 2; i >= 0; i-- {
		if segs[i] == "internal" {
			return strings.Join(segs[i+1:], "/")
		}
	}
	return ""
}

// isDeterministic reports whether the package at path is on the
// simulated path and therefore subject to the determinism analyzers.
func isDeterministic(path string) bool {
	return deterministicPkgs[internalPkg(path)]
}

// scopeSourceBans reports whether maprange and nowalltime check the
// package: the deterministic set plus the host-side packages that
// produce the artifacts promised reproducible (stats breakdowns, sweep
// CSVs, and what cmd/mgs prints). Nondeterminism is rejected where it is written
// down — an order-leaking map range, a host clock, a global rand draw,
// a pointer value — rather than traced to where it lands.
func scopeSourceBans(path string) bool {
	p := internalPkg(path)
	return isDeterministic(path) || p == "harness" || p == "stats" || p == "exp" || p == "cli" ||
		strings.HasSuffix(canonicalPath(path), "/cmd/mgs")
}

// scopeNoGoroutine reports whether nogoroutine checks the package:
// the deterministic set plus internal/harness, whose worker pool is one
// of the two sanctioned goroutine spawn sites.
func scopeNoGoroutine(path string) bool {
	return isDeterministic(path) || internalPkg(path) == "harness"
}
