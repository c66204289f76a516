package core_test

import (
	"strconv"
	"strings"
	"testing"

	"mgs/internal/core"
	"mgs/internal/exp"
	"mgs/internal/harness"
)

// TestNullMGSAtCEqualsP: the machine's shape alone decides the null
// protocol. At C = P one SSMP holds every processor, so every app at its
// -small shape on P = 8 sends no inter-SSMP message, books no Table 1
// message counter (rreq, rdat, upgrade, rel, inv, pinv, ...), and fills
// its TLBs only with plain-SVM fills, one per fault.
func TestNullMGSAtCEqualsP(t *testing.T) {
	for _, name := range exp.AllAppNames {
		res, err := harness.RunApp(exp.SmallApp(name), harness.NewConfig(8, 8))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.InterMsgs != 0 || res.InterBytes != 0 {
			t.Errorf("%s: %d inter-SSMP messages (%d bytes) at C = P", name, res.InterMsgs, res.InterBytes)
		}
		ctrs := make(map[string]int64)
		for _, line := range res.Counters {
			k, v, _ := strings.Cut(line, "=")
			ctrs[k], _ = strconv.ParseInt(v, 10, 64)
		}
		for _, k := range core.MessageCounterNames() {
			if ctrs[k] != 0 {
				t.Errorf("%s: %s=%d, a Table 1 message counter, at C = P", name, k, ctrs[k])
			}
		}
		if n := ctrs["tlbfill.local"]; n != 0 {
			t.Errorf("%s: tlbfill.local=%d at C = P, where every fill is tlbfill.null", name, n)
		}
		if faults := ctrs["fault.read"] + ctrs["fault.write"]; ctrs["tlbfill.null"] != faults {
			t.Errorf("%s: tlbfill.null=%d against %d faults at C = P", name, ctrs["tlbfill.null"], faults)
		}
	}
}
