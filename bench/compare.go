package main

import (
	"errors"
	"fmt"
)

// verdict judges one end-to-end metric of one workload, old against
// new. All end-to-end metrics are lower-is-better. Spread is the larger
// of the two runs' pass-to-pass spreads: where it exceeds the bound the
// benchmark cannot tell a regression of that size from noise, and says
// so instead of saying "unchanged". An improvement counts as "better"
// only beyond the spread; a metric with no spread on record (one sample
// per process, or samples that all agree) has to beat the bound.
func verdict(oldV, newV, spread, bound float64) string {
	if oldV == 0 {
		return "unresolved"
	}
	delta := (newV - oldV) / oldV
	noise := spread
	if noise == 0 {
		noise = bound
	}
	switch {
	case spread > bound:
		return "unresolved"
	case delta > bound:
		return "worse"
	case -delta > noise:
		return "better"
	}
	return "within bound"
}

// compareFiles applies the committed bounds to every workload and
// end-to-end metric the two result files share, one row per pair. It
// fails if any row is worse or if the new run failed a larger share of
// its simulations.
func compareFiles(oldPath, newPath string) error {
	oldRF, err := readResult(oldPath)
	if err != nil {
		return err
	}
	newRF, err := readResult(newPath)
	if err != nil {
		return err
	}
	byName := map[string]record{}
	for _, r := range oldRF.Workloads {
		byName[r.Workload] = r
	}
	fmt.Printf("%-14s %-12s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "old", "new", "delta", "spread", "bound", "verdict")
	bad := 0
	for _, n := range newRF.Workloads {
		o, ok := byName[n.Workload]
		if !ok || o.EndToEnd == nil || n.EndToEnd == nil {
			continue
		}
		for _, d := range endToEnd {
			ov, nv := o.EndToEnd[d.name].Value, n.EndToEnd[d.name].Value
			sp := max(spread(o.Samples[d.name]), spread(n.Samples[d.name]))
			v := verdict(ov, nv, sp, d.bound)
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-14s %-12s %12.6g %12.6g %+7.2f%% %7.2f%% %6.0f%%  %s\n",
				n.Workload, d.name, ov, nv, 100*(nv-ov)/ov, 100*sp, 100*d.bound, v)
		}
		if float64(n.Failed)*float64(o.Attempted) > float64(o.Failed)*float64(n.Attempted) {
			bad++
			fmt.Printf("%-14s failed %d of %d simulations, was %d of %d: worse\n", n.Workload, n.Failed, n.Attempted, o.Failed, o.Attempted)
		}
		if o.SimDigest != n.SimDigest {
			fmt.Printf("%-14s sim_digest %s -> %s: the simulated results changed\n", n.Workload, o.SimDigest, n.SimDigest)
		}
	}
	if bad > 0 {
		return errors.New("regression beyond the committed bounds")
	}
	return nil
}
