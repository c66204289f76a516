//go:build !race

package exp

// raceEnabled: this test binary runs under the race runtime.
const raceEnabled = false
