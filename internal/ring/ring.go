// Package ring provides a generic circular FIFO used for the queues on the
// simulator's cycle-level hot path: source queues, the ejection FIFO,
// lost-credit return rings and core/memory-controller service queues (input
// VC buffers are fixed windows of one flit slab, see noc's flitFIFO).
// Unlike an append/copy slice queue, a ring never moves elements on pop and
// never reallocates in steady state: push and pop are index arithmetic on a
// fixed backing array, which is what makes the cycle kernel allocation-free
// after warm-up.
package ring

// Ring is a circular FIFO.
//
// Capacity policy: a Ring built with max > 0 is hard-bounded — pushing past
// max panics, which in this simulator always indicates a flow-control
// protocol bug (credit overflow, queue-cap bypass). max == 0 allows growth
// by doubling, for queues whose steady-state bound is known but whose worst
// case is load-dependent; growth happens O(log n) times per run and then
// never again.
type Ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // occupied count
	max  int // hard capacity bound; 0 = grow by doubling
}

// New builds a Ring with the given initial capacity (rounded up to 1) and
// hard bound (0 = unbounded growth). An initial capacity below the bound is
// allowed; the ring grows on demand up to the bound.
func New[T any](capacity, max int) Ring[T] {
	var r Ring[T]
	r.Init(capacity, max)
	return r
}

// Init empties r in place into what New(capacity, max) builds, keeping its
// backing array, cleared, when that holds the initial capacity and fits
// the bound. A ring that grew in its last use starts this one at the
// size it grew to, which only changes Cap: a FIFO's contents do not
// depend on its backing capacity.
func (r *Ring[T]) Init(capacity, max int) {
	if capacity < 1 {
		capacity = 1
	}
	if max > 0 && capacity > max {
		capacity = max
	}
	buf := r.buf
	if len(buf) < capacity || (max > 0 && len(buf) > max) {
		buf = make([]T, capacity)
	} else {
		clear(buf)
	}
	*r = Over(buf, max)
}

// Over builds a Ring on the caller's buffer, whose length is the initial
// capacity, with hard bound max (0 = unbounded growth). A network carves
// all of its rings out of one backing array this way; a ring whose bound is
// len(buf) never leaves it, and one that grows moves to a buffer of its own.
// buf must be non-empty and at most max long, and must not be shared.
func Over[T any](buf []T, max int) Ring[T] {
	if len(buf) == 0 || (max > 0 && len(buf) > max) {
		panic("ring: buffer must be non-empty and within the hard bound")
	}
	return Ring[T]{buf: buf, max: max}
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current backing capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Full reports whether the ring is at its hard bound (always false for
// growable rings).
func (r *Ring[T]) Full() bool { return r.max > 0 && r.n == r.max }

// idx maps a logical position (0 = front) to a buffer index.
func (r *Ring[T]) idx(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// At returns a pointer to the i-th element from the front (0-based). The
// pointer is invalidated by the next Push that grows the ring.
func (r *Ring[T]) At(i int) *T { return &r.buf[r.idx(i)] }

// Front returns a pointer to the oldest element.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Push appends v at the tail, growing a ring that is out of space and
// panicking when that would exceed the hard bound (a flow-control invariant
// violation).
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		if r.max > 0 && r.n >= r.max {
			panic("ring: push past hard capacity bound")
		}
		r.grow()
	}
	r.buf[r.idx(r.n)] = v
	r.n++
}

// Pop removes and returns the front element.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ring: pop from empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop references for the GC
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// grow enlarges the backing array (doubling, clamped to the hard bound),
// linearizing the elements to the front.
func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if r.max > 0 && size > r.max {
		size = r.max
	}
	nb := make([]T, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[r.idx(i)]
	}
	r.buf = nb
	r.head = 0
}
