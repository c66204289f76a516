package serve

// DefaultWorkload returns the standard three-phase serving schedule:
// steady Zipf traffic, working-set drift, then a flash crowd at 4x the
// arrival rate concentrated on 1/64th of the keyspace. The small
// variant shrinks the keyspace and durations for tests and smoke runs.
// The op mix is read-heavy (75% get / 5% scan / 20% put), the classic
// session-store shape.
func DefaultWorkload(small bool, seed uint64) Workload {
	w := Workload{
		Seed:    seed,
		NKeys:   1024,
		GetBP:   7500,
		ScanBP:  500,
		ScanLen: 8,
		Theta:   0.9,
		Phases: []Phase{
			{Name: "steady", Kind: Steady, Cycles: 800_000, MeanGap: 2_500},
			{Name: "drift", Kind: Drift, Cycles: 800_000, MeanGap: 2_500},
			{Name: "flash", Kind: Flash, Cycles: 400_000, MeanGap: 600, HotFrac: 1.0 / 64},
		},
	}
	if small {
		w.NKeys = 256
		w.Phases = []Phase{
			{Name: "steady", Kind: Steady, Cycles: 300_000, MeanGap: 6_000},
			{Name: "drift", Kind: Drift, Cycles: 300_000, MeanGap: 6_000},
			{Name: "flash", Kind: Flash, Cycles: 150_000, MeanGap: 1_500, HotFrac: 1.0 / 64},
		}
	}
	return w
}

// Mixes are the named op-mix presets mgs serve's -workload flag
// accepts, applied on top of DefaultWorkload.
var Mixes = []string{"default", "read-heavy", "write-heavy", "scan-heavy"}

// ApplyMix adjusts the workload's op mix to the named preset; unknown
// names report false.
func ApplyMix(w *Workload, mix string) bool {
	switch mix {
	case "", "default":
	case "read-heavy":
		w.GetBP, w.ScanBP = 9000, 500
	case "write-heavy":
		w.GetBP, w.ScanBP = 4000, 500
	case "scan-heavy":
		w.GetBP, w.ScanBP = 5000, 3000
	default:
		return false
	}
	return true
}
