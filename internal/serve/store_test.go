package serve

import (
	"testing"

	"mgs/internal/harness"
)

// TestVerifyCatchesCorruption pins that VerifyAgainst is not vacuous:
// a store that ran a generated trace's puts verifies clean, and fails
// once any word of a record is flipped, a written one (key 0) or one
// this trace never puts (the last key).
func TestVerifyCatchesCorruption(t *testing.T) {
	w := DefaultWorkload(true, 1)
	m := harness.NewMachine(harness.NewConfig(8, 2))
	s := Place(m, w.NKeys, DefaultCosts())
	tr := w.Generate(m.Cfg.P)
	if _, err := m.Run(func(c *harness.Ctx) {
		for _, r := range tr.PerProc[c.ID] {
			if r.Op == OpPut {
				s.Put(c, r.Key, r.Val)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := tr.Expected(w.NKeys)
	if want.Count[0] == 0 {
		t.Fatal("the trace never puts key 0, the hottest key")
	}
	if err := s.VerifyAgainst(m, want); err != nil {
		t.Fatalf("clean run failed verify: %v", err)
	}
	for _, key := range []int32{0, int32(w.NKeys - 1)} {
		for word := 0; word < RecWords; word++ {
			a := s.wordAddr(key, word)
			m.SetI64(a, m.GetI64(a)^1)
			if err := s.VerifyAgainst(m, want); err == nil {
				t.Fatalf("verify passed with key %d word %d flipped", key, word)
			}
			m.SetI64(a, m.GetI64(a)^1)
		}
	}
}
