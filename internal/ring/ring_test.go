package ring

import "testing"

// TestWrapAround pushes and pops across the wrap point many times and
// checks FIFO order survives: the head index crosses the backing array
// boundary on most iterations.
func TestWrapAround(t *testing.T) {
	r := New[int](4, 4)
	next := 0 // next value to push
	want := 0 // next value expected from Pop
	for i := 0; i < 100; i++ {
		for r.Len() < 3 {
			r.Push(next)
			next++
		}
		for r.Len() > 1 {
			if got := r.Pop(); got != want {
				t.Fatalf("iteration %d: popped %d, want %d", i, got, want)
			}
			want++
		}
	}
}

// TestAtIndexesFromFront checks At(i) addresses the i-th oldest element
// even when the ring's contents straddle the wrap point.
func TestAtIndexesFromFront(t *testing.T) {
	r := New[int](4, 4)
	// Advance head to 3 so pushes wrap.
	for i := 0; i < 3; i++ {
		r.Push(i)
		r.Pop()
	}
	for i := 10; i < 14; i++ {
		r.Push(i)
	}
	for i := 0; i < 4; i++ {
		if got := *r.At(i); got != 10+i {
			t.Fatalf("At(%d) = %d, want %d", i, got, 10+i)
		}
	}
	if r.Front() != r.At(0) {
		t.Error("Front and At(0) disagree")
	}
}

// TestHardBoundGrowsThenPanics verifies a ring created below its hard
// bound grows up to the bound and panics only past it.
func TestHardBoundGrowsThenPanics(t *testing.T) {
	r := New[int](2, 5)
	for i := 0; i < 5; i++ {
		r.Push(i) // grows 2 -> 4 -> 5, no panic
	}
	if !r.Full() {
		t.Fatalf("ring with 5/5 elements not Full")
	}
	defer func() {
		if recover() == nil {
			t.Error("push past the hard capacity bound did not panic")
		}
	}()
	r.Push(5)
}

// TestGrowPreservesOrder fills an unbounded ring across several growth
// steps, with the contents wrapped at each growth, and checks order.
func TestGrowPreservesOrder(t *testing.T) {
	r := New[int](2, 0)
	// Offset head so every grow() has to linearize a wrapped buffer.
	r.Push(-1)
	r.Pop()
	for i := 0; i < 100; i++ {
		r.Push(i)
	}
	for i := 0; i < 100; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("popped %d, want %d", got, i)
		}
	}
}

// TestPopZeroesSlot checks a popped slot is zeroed so pointer elements do
// not pin garbage (white-box: inspect the backing array directly).
func TestPopZeroesSlot(t *testing.T) {
	p := New[*int](2, 2)
	v := 7
	p.Push(&v)
	p.Push(&v)
	p.Pop()
	if p.buf[0] != nil {
		t.Error("popped slot not zeroed")
	}
	if p.buf[1] == nil {
		t.Error("queued slot zeroed")
	}
}

// TestOverStaysInCallerBuffer builds rings on adjacent windows of one
// array: each keeps FIFO order inside its own window, never writes its
// neighbour's, and keeps the hard bound of a ring from New.
func TestOverStaysInCallerBuffer(t *testing.T) {
	backing := make([]int, 6)
	a, b := Over(backing[0:3:3], 3), Over(backing[3:6:6], 3)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			a.Push(100*round + i)
			b.Push(-(100*round + i))
		}
		for i := 0; i < 3; i++ {
			if got := a.Pop(); got != 100*round+i {
				t.Fatalf("round %d: a popped %d, want %d", round, got, 100*round+i)
			}
			if got := b.Pop(); got != -(100*round + i) {
				t.Fatalf("round %d: b popped %d, want %d", round, got, -(100*round + i))
			}
		}
	}
	if &a.buf[0] != &backing[0] || &b.buf[0] != &backing[3] {
		t.Error("a ring left its caller buffer")
	}
	a.Push(1)
	a.Push(2)
	a.Push(3)
	if !a.Full() {
		t.Fatal("ring with 3/3 elements not Full")
	}
	defer func() {
		if recover() == nil {
			t.Error("push past the hard capacity bound did not panic")
		}
	}()
	a.Push(4)
}

// TestInitReusesGrownBuffer checks that Init empties a ring onto the buffer
// it grew to, cleared, and allocates when that buffer exceeds a new bound.
func TestInitReusesGrownBuffer(t *testing.T) {
	r := New[*int](2, 0)
	v := 7
	for i := 0; i < 5; i++ {
		r.Push(&v) // grows 2 -> 4 -> 8
	}
	grown := r.Cap()
	r.Init(2, 0)
	if r.Len() != 0 || r.Cap() != grown {
		t.Fatalf("Init: len %d cap %d, want an empty ring on the grown buffer of %d", r.Len(), r.Cap(), grown)
	}
	for i := 0; i < grown; i++ {
		if *r.At(i) != nil {
			t.Fatalf("slot %d still holds a pointer after Init", i)
		}
	}
	r.Push(&v)
	if r.Pop() != &v || r.Len() != 0 {
		t.Fatal("the reinitialized ring is not a FIFO")
	}
	// A buffer past the new hard bound is not reused.
	r.Init(3, 3)
	if r.Cap() != 3 {
		t.Errorf("Init under a bound of 3 kept a buffer of %d", r.Cap())
	}
}
