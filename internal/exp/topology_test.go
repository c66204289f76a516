package exp

import (
	"reflect"
	"testing"

	"mgs/internal/apps"
	"mgs/internal/harness"
	"mgs/internal/msg"
	"mgs/internal/serve"
)

// The topology API's experiment-level contracts (the machine table,
// machines_test.go, runs every app on every topology): link-wait
// accounting is deterministic at any sweep width, the tiered WAN measurably fattens
// the serving tail, and the hierarchical directory keeps the Server's
// footprint O(sharers) on machines up to 1024 processors.

// TestTopologyLinkWaitDeterministic pins satellite #3's exp-level half:
// the link-wait counter — shared occupancy state on contended
// topologies — must not move with the sweep worker count, and an
// all-to-all workload at C=1 must actually exercise it.
func TestTopologyLinkWaitDeterministic(t *testing.T) {
	sweep := func(workers int) []ScalePoint {
		points, _, err := ScaleSweep("jacobi", 16, ScaleClusterSizes(16),
			Env{Opts: []harness.Option{harness.WithTopology(msg.NewMesh2D())}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	seq := sweep(1)
	if par := sweep(4); !reflect.DeepEqual(seq, par) {
		t.Fatalf("scale sweep diverges with sweep workers:\nseq: %+v\npar: %+v", seq, par)
	}
	if seq[0].C != 1 || seq[0].LinkWait == 0 {
		t.Errorf("C=1 mesh run saw no link contention: %+v", seq[0])
	}
	if last := seq[len(seq)-1]; last.C != 16 || last.LinkWait != 0 {
		t.Errorf("C=P run (no inter-SSMP traffic) charged link wait: %+v", last)
	}
}

// TestTieredWANFattensServeTail: partitioning the serving machine
// across WAN sites must fatten the measured tail — the quantiles are
// the experiment's output, so the topology has to reach them.
func TestTieredWANFattensServeTail(t *testing.T) {
	w := serve.DefaultWorkload(true, 7)
	run := func(topo msg.Topology) serve.Report {
		app := apps.NewServe(w)
		cfg := harness.NewConfig(8, 2, harness.WithTopology(topo))
		res, _, err := harness.RunAppMem(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return app.Report(res, serveSLO())
	}
	uni := run(msg.NewUniform())
	// Sites of two SSMPs: the 4-SSMP machine splits into two WAN sites.
	tier := run(msg.NewTiered(2))
	fattened := false
	for i := range uni.Phases {
		u, ti := uni.Phases[i], tier.Phases[i]
		if ti.P999 > u.P999 {
			fattened = true
		}
		if ti.P999 < u.P999 && ti.P99 < u.P99 && ti.Mean < u.Mean {
			t.Errorf("phase %s: tiered WAN run strictly faster than uniform LAN (mean %.0f < %.0f)",
				u.Phase, ti.Mean, u.Mean)
		}
	}
	if !fattened {
		t.Errorf("tiered p999 never above uniform: uniform %+v tiered %+v", uni.Phases, tier.Phases)
	}
}

// TestScaleTieredDirectory is the tentpole's headline run: the breakup
// penalty / multigrain potential curves at P=256 (and P=1024 unless
// -short) on the tiered topology, with the Server directory staying
// O(sharers) — a dense per-SSMP bitmap would register every SSMP on
// every served page; the sparse records must stay a small multiple of
// the page count no matter how many SSMPs exist.
func TestScaleTieredDirectory(t *testing.T) {
	ps := []int{256}
	if !testing.Short() {
		ps = append(ps, 1024)
	}
	for _, p := range ps {
		points, m, err := ScaleSweep("jacobi", p, ScaleClusterSizes(p),
			Env{Opts: []harness.Option{harness.WithTopology(msg.NewTiered(0))}})
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != len(ScaleClusterSizes(p)) {
			t.Fatalf("P=%d: %d points, want %d", p, len(points), len(ScaleClusterSizes(p)))
		}
		for _, pt := range points {
			if pt.Cycles <= 0 {
				t.Fatalf("P=%d C=%d: empty run", p, pt.C)
			}
			// O(sharers), not O(SSMPs), at every cluster size: Jacobi
			// shares boundary pages with at most a couple of neighbours,
			// so the per-page record count stays a small constant however
			// many SSMPs exist.
			if ds := pt.Dir; ds.Pages > 0 && ds.RmtEntries > 8*ds.Pages {
				t.Errorf("P=%d C=%d: directory not sparse: %+v", p, pt.C, ds)
			}
			if dense := pt.Dir.DenseBytes(p / pt.C); dense <= pt.Dir.Bytes {
				t.Errorf("P=%d C=%d: dense equivalent %dB not above the measured %dB", p, pt.C, dense, pt.Dir.Bytes)
			}
		}
		soft, tight := points[0], points[len(points)-1]
		if soft.Cycles <= tight.Cycles {
			t.Errorf("P=%d: all-software run (C=1, %d cycles) not above tightly-coupled (C=P, %d)",
				p, soft.Cycles, tight.Cycles)
		}
		if m.BreakupPenalty <= 0 || m.MultigrainPotential <= 0 {
			t.Errorf("P=%d: degenerate framework metrics %+v", p, m)
		}
		if soft.LinkWait == 0 {
			t.Errorf("P=%d C=1: tiered WAN saw no link contention", p)
		}
		if soft.Dir.Pages == 0 {
			t.Errorf("P=%d C=1: the all-software run served no pages: %+v", p, soft.Dir)
		}
	}
}
