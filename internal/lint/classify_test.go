package lint

import "testing"

func TestClassify(t *testing.T) {
	cases := []struct {
		path          string
		deterministic bool
		sourceBans    bool
		noGoroutine   bool
	}{
		{"mgs/internal/sim", true, true, true},
		{"mgs/internal/core", true, true, true},
		{"mgs/internal/msg", true, true, true},
		{"mgs/internal/msync", true, true, true},
		{"mgs/internal/msync/algo", true, true, true},
		{"mgs/internal/lint/analysis", false, false, false},
		{"mgs/internal/harness", false, true, true},
		{"mgs/internal/exp", false, true, false},
		{"mgs/internal/stats", false, true, false},
		{"mgs/internal/cli", false, true, false},
		{"mgs/internal/framework", false, false, false},
		// cmd/mgs writes the output promised reproducible; the vettool
		// itself, and any other command, is host-side only.
		{"mgs/cmd/mgs", false, true, false},
		{"mgs/cmd/mgs [mgs/cmd/mgs.test]", false, true, false},
		{"mgs/cmd/mgslint", false, false, false},
		{"mgs/cmd/mgssim", false, false, false},
		// go vet analyzes test variants under a suffixed path.
		{"mgs/internal/sim [mgs/internal/sim.test]", true, true, true},
	}
	for _, c := range cases {
		if got := isDeterministic(c.path); got != c.deterministic {
			t.Errorf("isDeterministic(%q) = %v, want %v", c.path, got, c.deterministic)
		}
		if got := scopeSourceBans(c.path); got != c.sourceBans {
			t.Errorf("scopeSourceBans(%q) = %v, want %v", c.path, got, c.sourceBans)
		}
		if got := scopeNoGoroutine(c.path); got != c.noGoroutine {
			t.Errorf("scopeNoGoroutine(%q) = %v, want %v", c.path, got, c.noGoroutine)
		}
	}
}
