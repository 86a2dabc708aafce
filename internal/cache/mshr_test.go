package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/xrand"
)

func TestMSHRNewValidation(t *testing.T) {
	if _, err := NewMSHR(0, 0); err == nil {
		t.Error("capacity 0 should be rejected")
	}
	if _, err := NewMSHR(64, 8); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := MustNewMSHR(4, 0)
	if got := m.Allocate(0x100, 1); got != AllocNew {
		t.Fatalf("first miss: got %v, want AllocNew", got)
	}
	if got := m.Allocate(0x100, 2); got != AllocMerged {
		t.Fatalf("second miss same line: got %v, want AllocMerged", got)
	}
	if m.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", m.InFlight())
	}
	if m.MergedMisses() != 1 {
		t.Errorf("MergedMisses = %d, want 1", m.MergedMisses())
	}
	waiters := m.Fill(0x100)
	if len(waiters) != 2 || waiters[0] != 1 || waiters[1] != 2 {
		t.Errorf("Fill returned %v, want [1 2]", waiters)
	}
	if m.Pending(0x100) {
		t.Error("entry should be released after Fill")
	}
}

func TestMSHRCapacityStall(t *testing.T) {
	m := MustNewMSHR(2, 0)
	m.Allocate(0x0, 1)
	m.Allocate(0x40, 2)
	if !m.Full() {
		t.Error("table should be full")
	}
	if got := m.Allocate(0x80, 3); got != AllocStallFull {
		t.Errorf("allocation beyond capacity: got %v, want AllocStallFull", got)
	}
	// Merging is still allowed when full.
	if got := m.Allocate(0x0, 4); got != AllocMerged {
		t.Errorf("merge when full: got %v, want AllocMerged", got)
	}
}

func TestMSHRPerEntryMergeLimit(t *testing.T) {
	m := MustNewMSHR(4, 2)
	m.Allocate(0x0, 1)
	if got := m.Allocate(0x0, 2); got != AllocMerged {
		t.Fatalf("second waiter: got %v", got)
	}
	if got := m.Allocate(0x0, 3); got != AllocStallFull {
		t.Errorf("third waiter beyond merge limit: got %v, want AllocStallFull", got)
	}
}

func TestMSHRFillUnknownLine(t *testing.T) {
	m := MustNewMSHR(4, 0)
	if ws := m.Fill(0xdead); ws != nil {
		t.Errorf("fill of unknown line returned %v, want nil", ws)
	}
}

func TestMSHRPeak(t *testing.T) {
	m := MustNewMSHR(8, 0)
	for i := 0; i < 5; i++ {
		m.Allocate(addr.Address(i*64), Waiter(i))
	}
	m.Fill(0)
	m.Fill(64)
	if m.Peak() != 5 {
		t.Errorf("peak = %d, want 5", m.Peak())
	}
}

func TestMSHRPropertyConservation(t *testing.T) {
	// Property: every allocated waiter is returned by exactly one Fill.
	f := func(ops []uint16) bool {
		m := MustNewMSHR(8, 0)
		allocated := map[Waiter]bool{}
		released := map[Waiter]bool{}
		next := Waiter(0)
		lines := []addr.Address{0, 64, 128, 192}
		for _, op := range ops {
			line := lines[int(op)%len(lines)]
			if op%3 == 0 {
				for _, w := range m.Fill(line) {
					if released[w] {
						return false // double release
					}
					released[w] = true
				}
			} else {
				if out := m.Allocate(line, next); out != AllocStallFull {
					allocated[next] = true
					next++
				}
			}
		}
		// Drain remaining entries.
		for _, line := range lines {
			for _, w := range m.Fill(line) {
				if released[w] {
					return false
				}
				released[w] = true
			}
		}
		if len(allocated) != len(released) {
			return false
		}
		for w := range allocated {
			if !released[w] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapMSHR is the map-of-slices table the slot array replaced, kept as the
// reference model.
type mapMSHR struct {
	capacity, maxPerEntry, peak int
	entries                     map[addr.Address][]Waiter
	merged                      uint64
}

func (m *mapMSHR) allocate(line addr.Address, w Waiter) Outcome {
	if ws, ok := m.entries[line]; ok {
		if m.maxPerEntry > 0 && len(ws) >= m.maxPerEntry {
			return AllocStallFull
		}
		m.entries[line] = append(ws, w)
		m.merged++
		return AllocMerged
	}
	if len(m.entries) >= m.capacity {
		return AllocStallFull
	}
	m.entries[line] = []Waiter{w}
	m.peak = max(m.peak, len(m.entries))
	return AllocNew
}

func (m *mapMSHR) fill(line addr.Address) []Waiter {
	ws := m.entries[line]
	delete(m.entries, line)
	return ws
}

func TestMSHRMatchesMapReference(t *testing.T) {
	// Random allocate/fill streams over more lines than entries (so hash
	// chains collide, the table fills and entries are recycled) must match
	// the reference outcome for outcome, waiter for waiter.
	for _, tc := range []struct{ capacity, mergeCap, lines int }{
		{1, 0, 3}, {3, 2, 8}, {8, 0, 40}, {64, 8, 200},
	} {
		rng := xrand.New(uint64(tc.capacity))
		m := MustNewMSHR(tc.capacity, tc.mergeCap)
		ref := &mapMSHR{capacity: tc.capacity, maxPerEntry: tc.mergeCap, entries: map[addr.Address][]Waiter{}}
		for op := 0; op < 20000; op++ {
			// Strided like real line addresses: only the bits above the
			// line offset differ.
			line := addr.Address(rng.Intn(tc.lines)) * 64
			if rng.Bool(0.4) {
				got, want := m.Fill(line), ref.fill(line)
				if len(got) != len(want) {
					t.Fatalf("cap %d op %d: Fill(%#x) returned %v, want %v", tc.capacity, op, line, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cap %d op %d: Fill(%#x) returned %v, want %v", tc.capacity, op, line, got, want)
					}
				}
			} else if got, want := m.Allocate(line, Waiter(op)), ref.allocate(line, Waiter(op)); got != want {
				t.Fatalf("cap %d op %d: Allocate(%#x) = %v, want %v", tc.capacity, op, line, got, want)
			}
			_, refPending := ref.entries[line]
			if m.Pending(line) != refPending || m.InFlight() != len(ref.entries) ||
				m.Full() != (len(ref.entries) >= tc.capacity) || m.Peak() != ref.peak || m.MergedMisses() != ref.merged {
				t.Fatalf("cap %d op %d: pending=%v inflight=%d full=%v peak=%d merged=%d; reference pending=%v inflight=%d peak=%d merged=%d",
					tc.capacity, op, m.Pending(line), m.InFlight(), m.Full(), m.Peak(), m.MergedMisses(),
					refPending, len(ref.entries), ref.peak, ref.merged)
			}
		}
	}
}

func TestMSHRSteadyStateAllocatesNothing(t *testing.T) {
	m := MustNewMSHR(8, 4)
	cycle := func() {
		for i := 0; i < 8; i++ {
			for w := 0; w < 4; w++ {
				m.Allocate(addr.Address(i*64), Waiter(w))
			}
		}
		for i := 0; i < 8; i++ {
			if got := len(m.Fill(addr.Address(i * 64))); got != 4 {
				t.Fatalf("fill released %d waiters, want 4", got)
			}
		}
	}
	cycle() // grows every entry's waiter slice once
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state allocate/fill cycle allocates %v times, want 0", allocs)
	}
}
