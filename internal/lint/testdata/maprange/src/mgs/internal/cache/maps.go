package cache

import "sort"

func observe(int) {}

func emit([]int) {}

// LeakOrder builds a slice in map order and never sorts it.
func LeakOrder(m map[int]int) []int {
	var out []int
	for k := range m { // want `range over map in deterministic package`
		out = append(out, k)
	}
	return out
}

// CollectThenSort is the sanctioned idiom: the first use of the
// collected slice after the loop is a sort.
func CollectThenSort(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// CollectFiltered mixes control flow with collection; still fine.
func CollectFiltered(m map[int]int) []int {
	var big []int
	for k, v := range m {
		if v < 10 {
			continue
		}
		big = append(big, k)
	}
	sort.Slice(big, func(i, j int) bool { return big[i] < big[j] })
	return big
}

// UsedBeforeSort leaks iteration order through emit before sorting.
func UsedBeforeSort(m map[int]int) []int {
	var keys []int
	for k := range m { // want `range over map in deterministic package`
		keys = append(keys, k)
	}
	emit(keys)
	sort.Ints(keys)
	return keys
}

// Commutative bodies cannot observe iteration order.
func Commutative(m map[int]int) (int, int) {
	sum, n := 0, 0
	for _, v := range m {
		if v > 0 {
			sum += v
			n++
		}
	}
	return sum, n
}

// KeyIndexed writes distinct elements per iteration: order-free.
func KeyIndexed(m, out map[int]int) {
	for k, v := range m {
		out[k] = v * 2
	}
}

// Deletes commute across distinct keys.
func Deletes(m, dead map[int]bool) {
	for k := range dead {
		delete(m, k)
	}
}

// EarlyReturn picks an arbitrary key.
func EarlyReturn(m map[int]int) int {
	for k := range m { // want `range over map in deterministic package`
		return k
	}
	return -1
}

// CallsInBody could do anything order-sensitive.
func CallsInBody(m map[int]int) {
	for k := range m { // want `range over map in deterministic package`
		observe(k)
	}
}

// SliceRange: not a map, never flagged.
func SliceRange(s []int) int {
	sum := 0
	for _, v := range s {
		observe(v)
		sum += v
	}
	return sum
}

// CaseBody hides the loop in a case clause; it still picks an arbitrary
// key.
func CaseBody(kind int, m map[int]int) int {
	switch kind {
	case 0:
		for k := range m { // want `range over map in deterministic package`
			return k
		}
	default:
		var keys []int
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		return keys[0]
	}
	return -1
}

// Concat looks like accumulation, but string += concatenates in
// iteration order.
func Concat(m map[int]string) string {
	s := ""
	for _, v := range m { // want `range over map in deterministic package`
		s += v
	}
	return s
}
