package main

import (
	"fmt"
	"io"

	"mgs/internal/cli"
	"mgs/internal/exp"
	"mgs/internal/framework"
	"mgs/internal/harness"
	"mgs/internal/stats"
)

// sweep regenerates the MGS paper's evaluation: Table 4, the
// cluster-size sweeps behind Figures 6–10, the lock hit ratios of
// Figure 11, the Water-kernel comparison of Figure 12, and the design
// ablations from DESIGN.md — one mode flag per table or figure, -app
// alone for one of Figures 6–10. Output is identical at any -workers:
// each point is an independent deterministic simulation.
func sweep(t *cli.Tool, args []string, stdout io.Writer) error {
	t.MachineFlags("", 32, 4, false).SweepFlags()
	var (
		table4   = t.Flags.Bool("table4", false, "reproduce Table 4")
		fig11    = t.Flags.Bool("fig11", false, "reproduce Figure 11 (lock hit ratios)")
		fig12    = t.Flags.Bool("fig12", false, "reproduce Figure 12 (Water kernel)")
		all      = t.Flags.Bool("all", false, "reproduce Figures 6-12")
		ablation = t.Flags.String("ablation", "", "ablation: 1writer, serialinv, update, pagesize, mesh, lazy")
		scale    = t.Flags.Bool("scale", false, "scale sweep: -app sized to one work unit per processor, at ScaleClusterSizes(-p)")
	)
	if err := t.Parse(args); err != nil {
		return err
	}
	s := sweeper{t, stdout}

	switch {
	case *table4:
		return s.table4()
	case *fig11:
		return s.fig11()
	case *fig12:
		return s.fig12()
	case *ablation != "":
		return s.ablation(*ablation)
	case *scale:
		return s.scale()
	case *all:
		for _, name := range exp.AppNames {
			if err := s.figure(name); err != nil {
				return err
			}
		}
		if err := s.fig11(); err != nil {
			return err
		}
		return s.fig12()
	case t.App != "":
		return s.figure(t.App)
	}
	t.Flags.Usage()
	return cli.ErrUsage
}

// sweeper is one sweep invocation: the parsed flags and where the
// tables go.
type sweeper struct {
	*cli.Tool
	out io.Writer
}

func (s sweeper) table4() error {
	rows, err := exp.Table4(s.P, s.Env())
	if err != nil {
		return err
	}
	if s.CSV {
		w := cli.NewCSV(s.out, "app", "seq_cycles", "par_cycles", "speedup")
		for _, r := range rows {
			w.Row(r.App, r.Seq, r.Par, r.Speedup)
		}
		return w.Flush()
	}
	fmt.Fprintf(s.out, "Table 4: applications, sequential cycles, speedup on %d processors\n", s.P)
	for _, r := range rows {
		fmt.Fprintf(s.out, "  %-12s seq %12d cycles   S%d = %5.1f\n", r.App, r.Seq, s.P, r.Speedup)
	}
	return nil
}

func (s sweeper) figure(name string) error {
	points, m, err := exp.FigureSweep(name, s.P, s.Env())
	if err != nil {
		return err
	}
	if s.CSV {
		w := cli.NewCSV(s.out, "app", "c", "cycles", "user", "lock", "barrier", "mgs")
		for _, pt := range points {
			b := pt.Res.Breakdown
			w.Row(name, pt.C, pt.Res.Cycles,
				b.Avg[stats.User], b.Avg[stats.Lock], b.Avg[stats.Barrier], b.Avg[stats.MGS])
		}
		return w.Flush()
	}
	fmt.Fprintf(s.out, "%s: runtime breakdown vs cluster size (P=%d)\n", name, s.P)
	s.breakdowns(points)
	fmt.Fprintf(s.out, "  %s\n\n", m)
	return nil
}

func (s sweeper) breakdowns(points []harness.SweepPoint) {
	fmt.Fprintf(s.out, "  %-4s %12s  %10s %10s %10s %10s\n", "C", "cycles", "User", "Lock", "Barrier", "MGS")
	for _, pt := range points {
		b := pt.Res.Breakdown
		fmt.Fprintf(s.out, "  %-4d %12d  %10.0f %10.0f %10.0f %10.0f\n",
			pt.C, pt.Res.Cycles,
			b.Avg[stats.User], b.Avg[stats.Lock], b.Avg[stats.Barrier], b.Avg[stats.MGS])
	}
}

func (s sweeper) fig11() error {
	names := []string{"tsp", "water", "barnes-hut"}
	out, err := exp.LockHitSweep(names, s.P, s.Env())
	if err != nil {
		return err
	}
	if s.CSV {
		w := cli.NewCSV(s.out, "app", "c", "hit_ratio")
		for _, name := range names {
			for _, pt := range out[name] {
				w.Row(name, pt.C, pt.Ratio)
			}
		}
		return w.Flush()
	}
	fmt.Fprintf(s.out, "Figure 11: MGS lock hit ratio vs cluster size (P=%d)\n", s.P)
	for _, name := range names {
		fmt.Fprintf(s.out, "  %-12s", name)
		for _, pt := range out[name] {
			fmt.Fprintf(s.out, "  C=%d: %.2f", pt.C, pt.Ratio)
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

func (s sweeper) fig12() error {
	// 16*p is the smallest molecule count whose tiles stay page aligned
	// at every cluster size (C=1 makes p SSMPs and tiles span 16
	// molecules), so -small cannot shrink Figure 12 further.
	n := 16 * s.P
	plain, tiled, err := exp.Fig12(s.P, n, s.Env())
	if err != nil {
		return err
	}
	if s.CSV {
		w := cli.NewCSV(s.out, "variant", "c", "cycles")
		for _, pt := range plain {
			w.Row("plain", pt.C, pt.Res.Cycles)
		}
		for _, pt := range tiled {
			w.Row("tiled", pt.C, pt.Res.Cycles)
		}
		return w.Flush()
	}
	fmt.Fprintf(s.out, "Figure 12: Water kernel, %d molecules, P=%d\n", n, s.P)
	fmt.Fprintln(s.out, " unoptimized:")
	s.breakdowns(plain)
	fmt.Fprintf(s.out, "  %s\n", framework.Analyze(exp.FrameworkPoints(plain)))
	fmt.Fprintln(s.out, " tiled:")
	s.breakdowns(tiled)
	fmt.Fprintf(s.out, "  %s\n", framework.Analyze(exp.FrameworkPoints(tiled)))
	return nil
}

func (s sweeper) ablation(kind string) error {
	app := s.App
	if app == "" {
		app = "water"
	}
	if kind == "pagesize" {
		pts, err := exp.AblationPageSize(app, s.P, s.C, []int{256, 512, 1024, 2048, 4096}, s.Env())
		if err != nil {
			return err
		}
		if s.CSV {
			w := cli.NewCSV(s.out, "app", "p", "c", "page_size", "cycles")
			for _, pt := range pts {
				w.Row(app, s.P, s.C, pt.PageSize, pt.Cycles)
			}
			return w.Flush()
		}
		fmt.Fprintf(s.out, "page size ablation, %s (P=%d, C=%d)\n", app, s.P, s.C)
		for _, pt := range pts {
			fmt.Fprintf(s.out, "  %5dB pages: %12d cycles\n", pt.PageSize, pt.Cycles)
		}
		return nil
	}
	ab, ok := exp.AblationByName(kind)
	if !ok {
		return fmt.Errorf("unknown ablation %q", kind)
	}
	base, alt, err := exp.AblationSweep(app, s.P, ab.Alt, s.Env())
	if err != nil {
		return err
	}
	// The title heads the CSV rows too, as it always has.
	fmt.Fprintf(s.out, "%s, %s (P=%d)\n", ab.Title, app, s.P)
	if s.CSV {
		w := cli.NewCSV(s.out, "c", ab.BaseLabel, ab.AltLabel)
		for i := range base {
			w.Row(base[i].C, base[i].Res.Cycles, alt[i].Res.Cycles)
		}
		return w.Flush()
	}
	fmt.Fprintf(s.out, "  %-4s %14s %14s\n", "C", ab.BaseLabel, ab.AltLabel)
	for i := range base {
		fmt.Fprintf(s.out, "  %-4d %14d %14d\n", base[i].C, base[i].Res.Cycles, alt[i].Res.Cycles)
	}
	return nil
}

// scale is the thousand-processor scale experiment (EXPERIMENTS.md):
// the framework metrics and, per cluster size, the directory footprint
// beside what a dense one-record-per-SSMP directory would occupy.
func (s sweeper) scale() error {
	app := s.App
	if app == "" {
		app = "jacobi"
	}
	points, m, err := exp.ScaleSweep(app, s.P, exp.ScaleClusterSizes(s.P), s.Env())
	if err != nil {
		return err
	}
	if s.CSV {
		fmt.Fprint(s.out, exp.ScaleCSV(app, s.Topology, s.P, points))
		return nil
	}
	fmt.Fprintf(s.out, "scale sweep, %s on %s (P=%d)\n", app, s.Topology, s.P)
	fmt.Fprintf(s.out, "  %-5s %12s %12s %18s %12s %14s\n", "C", "cycles", "link-wait", "dir entries/pages", "dir bytes", "dense bytes")
	for _, pt := range points {
		fmt.Fprintf(s.out, "  %-5d %12d %12d %18s %12d %14d\n", pt.C, pt.Cycles, pt.LinkWait,
			fmt.Sprintf("%d/%d", pt.Dir.RmtEntries, pt.Dir.Pages), pt.Dir.Bytes, pt.Dir.DenseBytes(s.P/pt.C))
	}
	fmt.Fprintf(s.out, "  %s\n", m)
	return nil
}
