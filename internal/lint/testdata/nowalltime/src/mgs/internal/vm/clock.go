package vm

import (
	"math/rand"
	"time"
)

// Bad uses the host clock and the process-global rand source.
func Bad() time.Duration {
	start := time.Now() // want `time\.Now reads the host clock`
	time.Sleep(1)       // want `time\.Sleep reads the host clock`
	_ = rand.Intn(4)    // want `global rand\.Intn draws from the process-wide source`
	return time.Since(start) // want `time\.Since reads the host clock`
}

// Good sticks to seeded generators and pure time arithmetic.
func Good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	var d time.Duration = 5
	_ = d
	return r.Intn(4)
}
