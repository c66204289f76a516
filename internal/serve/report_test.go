package serve

import (
	"testing"

	"mgs/internal/obs"
)

// TestRecorderObserveZeroAllocs pins the per-request recording path:
// Observe runs once for every served request, inside the proc body, so
// an allocation here is one per request for the whole run.
func TestRecorderObserveZeroAllocs(t *testing.T) {
	r := NewRecorder(obs.NewRegistry(), []Phase{{Name: "steady"}, {Name: "flash"}})
	allocs := testing.AllocsPerRun(100, func() {
		r.Observe(0, OpGet, 250)
		r.Observe(1, OpScan, 1<<40) // overflow bucket
	})
	if allocs != 0 {
		t.Errorf("Recorder.Observe allocated %.1f times per op, want 0", allocs)
	}
}
