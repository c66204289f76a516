package mem

import "iter"

func count(yield func(int) bool) {
	for i := 0; yield(i); i++ {
	}
}

// Coroutine runs count on a second stack: no scheduler is involved, but
// it is still code that suspends mid-function.
func Coroutine() int {
	next, stop := iter.Pull(count) // want `iter\.Pull starts a coroutine`
	defer stop()
	v, _ := next()
	return v
}

// Instantiated spells the type arguments out.
func Instantiated(seq iter.Seq2[int, int]) {
	_, stop := iter.Pull2[int, int](seq) // want `iter\.Pull2 starts a coroutine`
	stop()
}

// RangeOverFunc is an ordinary loop: the compiler calls count with the
// body as yield on this stack.
func RangeOverFunc() int {
	for v := range count {
		return v
	}
	return -1
}
