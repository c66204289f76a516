// mgs-trace runs an application with the observability spine attached
// and prints the unified MGS event stream — protocol transitions,
// synchronization operations, and (with -faults) transport fates, all
// on one virtual-time axis. This is the tool used to diagnose every
// protocol race found while building this system.
//
// Usage:
//
//	mgs-trace -app water -p 8 -c 2 [-page 5] [-from 0] [-to 1e9] [-max 500]
//	mgs-trace -app water -cat protocol,transport
//	mgs-trace -app water -faults -fseed 7 [-fdrop 300] [-fdup 100] [-fdelay 500]
//	mgs-trace -app water -chrome trace.json
//
// With -faults, a seeded fault plan (internal/fault) is attached to the
// transport and injector events (DROP/DUP/DELAY/TIMEOUT/ACK...) print
// interleaved with the protocol events — the view that shows which
// retransmission provoked which protocol transition.
//
// With -chrome, the same (filtered) event stream is additionally
// exported as Chrome trace_event JSON — open it in chrome://tracing or
// https://ui.perfetto.dev to see one track per processor plus one per
// software engine, timestamped in virtual cycles.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mgs/internal/cli"
	"mgs/internal/fault"
	"mgs/internal/harness"
	"mgs/internal/obs"
)

func main() {
	t := cli.New("mgs-trace").MachineFlags("water", 8, 2, true)
	var (
		page   = flag.Int64("page", -1, "only events for this page (-1: all)")
		from   = flag.Int64("from", 0, "suppress events before this cycle")
		to     = flag.Int64("to", 1<<62, "suppress events after this cycle")
		max    = flag.Int("max", 500, "stop printing after this many events")
		cats   = flag.String("cat", "", "comma-separated categories (protocol, transport, sync, engine; empty: all)")
		chrome = flag.String("chrome", "", "also write the filtered stream as Chrome trace JSON to this file")
		faults = flag.Bool("faults", false, "attach a fault plan and trace injector events too")
		fseed  = flag.Uint64("fseed", 1, "fault plan seed")
		fdrop  = flag.Int("fdrop", 300, "drop rate, basis points")
		fdup   = flag.Int("fdup", 100, "duplication rate, basis points")
		fdelay = flag.Int("fdelay", 500, "delay rate, basis points")
	)
	t.Parse()

	keepCat, err := catFilter(*cats)
	if err != nil {
		log.Fatal(err)
	}

	text := obs.NewTextSink(os.Stdout)
	var chromeSink *obs.ChromeSink
	sink := obs.Sink(text)
	if *chrome != "" {
		chromeSink = obs.NewChromeSink(t.P)
		sink = obs.FuncSink(func(e obs.Event) {
			text.Emit(e)
			chromeSink.Emit(e)
		})
	}
	keep := func(e obs.Event) bool {
		if text.Count >= *max {
			return false
		}
		if !keepCat[e.Cat] {
			return false
		}
		if *page >= 0 && !(e.Kind == obs.ObjPage && e.ID == *page) {
			return false
		}
		return int64(e.T) >= *from && int64(e.T) <= *to
	}

	opts := []harness.Option{harness.WithObserver(obs.New().AddSink(obs.Filter(sink, keep)))}
	if *faults {
		opts = append(opts, harness.WithFaultPlan(
			fault.Plan{Seed: *fseed, DropBP: *fdrop, DupBP: *fdup, DelayBP: *fdelay}))
	}
	m := harness.NewMachine(t.Config(opts...))
	a := t.Env().Apps(t.App)
	a.Setup(m)
	res, err := m.Run(a.Body)
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Verify(m); err != nil {
		log.Fatalf("verification: %v", err)
	}
	if chromeSink != nil {
		f, err := os.Create(*chrome)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := chromeSink.WriteTo(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- wrote %s (%d events)\n", *chrome, chromeSink.Len())
	}
	fmt.Printf("-- %d events printed; run took %s cycles\n", text.Count, comma(int64(res.Cycles)))
}

// catFilter parses the -cat list into a per-category keep set.
func catFilter(list string) (map[obs.Cat]bool, error) {
	keep := make(map[obs.Cat]bool)
	if list == "" {
		for c := obs.Cat(0); c < obs.NumCats; c++ {
			keep[c] = true
		}
		return keep, nil
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for c := obs.Cat(0); c < obs.NumCats; c++ {
			if c.String() == name {
				keep[c] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown category %q", name)
		}
	}
	return keep, nil
}

// comma renders n with thousands separators.
func comma(n int64) string {
	s := fmt.Sprintf("%d", n)
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	return b.String()
}
