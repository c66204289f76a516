package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"mgs/internal/sim"
	"mgs/internal/vm"
)

// Every decision counter constant has a name, and no two counters of
// either sort share one: a missing entry in the keyed ctrNames literal
// would count under "", and a message counter named twice would resolve
// two handles for one line.
func TestCounterNamesAreDistinct(t *testing.T) {
	seen := make(map[string]string)
	name := func(n, where string) {
		if d, ok := seen[n]; ok {
			t.Errorf("%s and %s are both %q", d, where, n)
		}
		seen[n] = where
	}
	for c := ctr(0); c < numCtr; c++ {
		if ctrNames[c] == "" {
			t.Errorf("counter %d has no name", c)
		}
		name(ctrNames[c], "a decision counter")
	}
	for k := range sendNames {
		for sub, n := range sendNames[k] {
			if n != "" {
				name(n, msgNames[k]+" key "+strconv.Itoa(sub))
			}
		}
	}
}

// TestMessageCountersCountEveryMessage: after racing writes, reads and
// releases under every variant, every request has had its reply
// (Quiescent), and the message counters of a kind add up to the
// messages of that kind sent: the INVs split exactly into inv, 1winv
// and 1wdemote, and only the untorn invalidation replies go uncounted.
// A RACK (LAZYACK) the send counts miss is then named with its REL
// (LAZYREL).
func TestMessageCountersCountEveryMessage(t *testing.T) {
	for _, nv := range Variants() {
		tm := buildTest(8, 2, 700, func(c *Config) { c.Variant = nv.Variant })
		base := tm.sys.Space().AllocPages(4 * 1024)
		for i := range tm.bodies {
			rng := rand.New(rand.NewSource(int64(i)))
			tm.bodies[i] = func(p *sim.Proc) {
				for step := 0; step < 40; step++ {
					va := base + vm.Addr(rng.Intn(4*1024/8)*8)
					if rng.Intn(2) == 0 {
						store64(tm.sys, p, va, uint64(step))
					} else {
						load64(tm.sys, p, va)
					}
					if rng.Intn(5) == 0 {
						tm.sys.ReleaseAll(p)
					}
				}
				tm.sys.ReleaseAll(p)
			}
		}
		tm.run(t)
		if err := tm.sys.Quiescent(); err != nil {
			t.Errorf("%s: %v", nv.Name, err)
		}
		for k, names := range sendNames {
			if names[0] == "" { // a kind no counter books
				continue
			}
			var n int64
			for _, name := range names {
				if name != "" {
					n += tm.st.Counter(name)
				}
			}
			if sent := tm.sys.sent[k]; n != sent && (msgKind(k) != mIReply || n > sent) {
				t.Errorf("%s: %s counters %v add up to %d, but %d were sent", nv.Name, msgNames[k], names, n, sent)
			}
		}
		rel, ack := mRel, mRack
		if nv.LazyRelease {
			rel, ack = mLazyRel, mLazyAck
		}
		if tm.sys.sent[rel] == 0 || (!nv.LazyRelease && tm.sys.sent[mInv] == 0) {
			t.Errorf("%s: the run sent %d %s and %d INV: no release ran", nv.Name, tm.sys.sent[rel], msgNames[rel], tm.sys.sent[mInv])
		}
		tm.sys.sent[ack]--
		want := " " + msgNames[rel] + " sent against " + strconv.FormatInt(tm.sys.sent[ack], 10) + " " + msgNames[ack] + ": "
		if err := tm.sys.Quiescent(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: a missing %s gives %v, want an error containing %q", nv.Name, msgNames[ack], err, want)
		}
	}
}
