package core

import "testing"

// Every counter constant has a name, and no two share one: a missing
// entry in the keyed ctrNames literal would count under "".
func TestCounterNamesAreDistinct(t *testing.T) {
	seen := make(map[string]ctr, numCtr)
	for c := ctr(0); c < numCtr; c++ {
		n := ctrNames[c]
		if n == "" {
			t.Errorf("counter %d has no name", c)
		}
		if d, ok := seen[n]; ok {
			t.Errorf("counters %d and %d are both %q", d, c, n)
		}
		seen[n] = c
	}
}
