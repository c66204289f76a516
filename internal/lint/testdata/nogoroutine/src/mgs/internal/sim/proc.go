// Package sim holds the other sanctioned site, sim.(*Proc).Fire — here
// after a refactor moved the coroutine out of it and left the list
// behind.
package sim

import "iter"

type Proc struct {
	next func() (struct{}, bool)
}

func (p *Proc) run(yield func(struct{}) bool) {}

// Fire no longer starts the coroutine, so its entry in the list excuses
// nothing: the entry is the diagnostic.
func (p *Proc) Fire() { // want `sim\.\(\*Proc\)\.Fire is in nogoroutine's sanctionedSites but starts no goroutine`
	p.next()
}

// start is where the coroutine went; it is not on the list.
func (p *Proc) start() {
	p.next, _ = iter.Pull(p.run) // want `iter\.Pull starts a coroutine`
}
