package reuse

import "testing"

func TestSliceZeroesWhatItReuses(t *testing.T) {
	s := make([]int, 4, 8)
	for i := range s {
		s[i] = i + 1
	}
	r := Slice(s, 6)
	if len(r) != 6 || &r[0] != &s[0] {
		t.Fatalf("a fitting length must re-slice the same array: len %d", len(r))
	}
	for i, v := range r {
		if v != 0 {
			t.Fatalf("reused element %d = %d, want 0", i, v)
		}
	}
	g := Slice(s, 9)
	if len(g) != 9 || &g[0] == &s[0] {
		t.Fatal("a length past the capacity must get a new array")
	}
}

func TestKeepKeepsElements(t *testing.T) {
	s := make([]int, 2, 4)
	s[0], s[1] = 1, 2
	s[:4][3] = 4 // past the length, inside the capacity
	r := Keep(s, 4)
	if &r[0] != &s[0] || r[1] != 2 || r[3] != 4 {
		t.Fatalf("Keep within capacity: %v, want the same array with its elements", r)
	}
	g := Keep(s, 6)
	if &g[0] == &s[0] || g[1] != 2 || g[3] != 4 || g[5] != 0 {
		t.Fatalf("Keep past capacity: %v, want a new array holding the old elements", g)
	}
}

func TestReuseAllocatesOnlyToGrow(t *testing.T) {
	s := make([]uint64, 64)
	if a := testing.AllocsPerRun(100, func() {
		s = Slice(s, 32)
		s = Keep(s, 64)
	}); a != 0 {
		t.Errorf("re-slicing within capacity allocates %.0f times", a)
	}
}
