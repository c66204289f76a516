// Package framework is host-side and produces no artifact promised
// reproducible: the source bans do not apply, so nothing here is
// flagged.
package framework

import (
	"math/rand"
	"time"
)

func Stamp() (time.Time, int) {
	time.Sleep(1)
	return time.Now(), rand.Intn(4)
}
