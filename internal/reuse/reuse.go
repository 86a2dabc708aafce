// Package reuse holds the helpers every in-place init uses to build a
// component into the memory its previous build left behind. A worker slot
// runs one simulation after another, and each run's System is built into
// the last one's arrays (core.Slot), so the runner path makes almost no
// construction garbage.
package reuse

// Slice returns a zeroed slice of length n: s re-sliced and cleared when its
// capacity fits, and a new slice otherwise. Only reused memory is cleared, so
// a first build pays no more than make.
func Slice[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// Keep returns a slice of length n that holds what s's backing array held:
// s re-sliced when its capacity fits, and otherwise a new array that the
// old one's elements are copied into. It is for arrays of components that
// the caller re-initializes element by element, each element keeping its
// own arrays, and for scratch that is appended to from empty.
func Keep[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}
