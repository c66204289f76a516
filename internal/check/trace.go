package check

import (
	"encoding/json"
	"fmt"
	"os"

	"mgs/internal/obs"
)

// Trace is a serialized counterexample: the exact sequence of delivery
// choices that reproduces a violation. Choices[i] indexes into the
// (deterministically ordered) set of deliverable messages at the i-th
// choice point; Labels renders each chosen delivery for humans. Replay
// re-executes the schedule bit-identically.
type Trace struct {
	Workload string `json:"workload"`
	// Lock and Barrier are the algorithms the run used. Empty (traces
	// older than the fields) means the workload's own.
	Lock      string   `json:"lock,omitempty"`
	Barrier   string   `json:"barrier,omitempty"`
	Mutate    bool     `json:"mutate,omitempty"`
	Choices   []int    `json:"choices"`
	Labels    []string `json:"labels,omitempty"`
	Kind      string   `json:"kind,omitempty"`
	Violation string   `json:"violation,omitempty"`
}

// Save writes the trace as indented JSON.
func (t Trace) Save(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadTrace reads a trace written by Save.
func LoadTrace(path string) (Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Trace{}, err
	}
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return Trace{}, fmt.Errorf("check: %s: %w", path, err)
	}
	return t, nil
}

// Replay re-executes the trace's schedule on a fresh machine with all
// oracles armed, optionally rendering every trace event through sink
// (e.g. obs.NewTextSink(os.Stdout)). It returns the violation the
// schedule reproduces, or nil if the run is clean — which, for a trace
// recorded from a real counterexample, means the implementation no
// longer exhibits the bug.
func Replay(t Trace, sink obs.Sink) (*Violation, error) {
	rc, err := t.replay(sink)
	if err != nil {
		return nil, err
	}
	return rc.vio, nil
}

// replay rebuilds the machine the trace describes — workload, lock and
// barrier algorithms, mutation — and runs its schedule.
func (t Trace) replay(sink obs.Sink) (*runChooser, error) {
	w, ok := Lookup(t.Workload)
	if !ok {
		return nil, fmt.Errorf("check: unknown workload %q", t.Workload)
	}
	if t.Lock != "" {
		w.Lock = t.Lock
	}
	if t.Barrier != "" {
		w.Barrier = t.Barrier
	}
	return execute(nil, w, t.Choices, t.Mutate, sink)
}
