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
	if got := m.Allocate(0x100, 1, false, true); got != AllocNew {
		t.Fatalf("first miss: got %v, want AllocNew", got)
	}
	if got := m.Allocate(0x100, 2, false, true); got != AllocMerged {
		t.Fatalf("second miss same line: got %v, want AllocMerged", got)
	}
	if m.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", m.InFlight())
	}
	if m.MergedMisses() != 1 {
		t.Errorf("MergedMisses = %d, want 1", m.MergedMisses())
	}
	waiters, write := m.Fill(0x100)
	if len(waiters) != 2 || waiters[0] != 1 || waiters[1] != 2 || write {
		t.Errorf("Fill returned %v, %v, want [1 2], false", waiters, write)
	}
	if pending(m, 0x100) {
		t.Error("entry should be released after Fill")
	}
}

func TestMSHRCapacityStall(t *testing.T) {
	m := MustNewMSHR(2, 0)
	m.Allocate(0x0, 1, false, true)
	m.Allocate(0x40, 2, false, true)
	if !m.Full() {
		t.Error("table should be full")
	}
	if got := m.Allocate(0x80, 3, false, true); got != AllocStallFull {
		t.Errorf("allocation beyond capacity: got %v, want AllocStallFull", got)
	}
	// Merging is still allowed when full.
	if got := m.Allocate(0x0, 4, false, true); got != AllocMerged {
		t.Errorf("merge when full: got %v, want AllocMerged", got)
	}
}

func TestMSHRPerEntryMergeLimit(t *testing.T) {
	m := MustNewMSHR(4, 2)
	m.Allocate(0x0, 1, false, true)
	if got := m.Allocate(0x0, 2, false, true); got != AllocMerged {
		t.Fatalf("second waiter: got %v", got)
	}
	if got := m.Allocate(0x0, 3, false, true); got != AllocStallFull {
		t.Errorf("third waiter beyond merge limit: got %v, want AllocStallFull", got)
	}
}

func TestMSHRFillUnknownLine(t *testing.T) {
	m := MustNewMSHR(4, 0)
	if ws, write := m.Fill(0xdead); ws != nil || write {
		t.Errorf("fill of unknown line returned %v, %v, want nil, false", ws, write)
	}
}

func TestMSHRPeak(t *testing.T) {
	m := MustNewMSHR(8, 0)
	for i := 0; i < 5; i++ {
		m.Allocate(addr.Address(i*64), Waiter(i), false, true)
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
				ws, _ := m.Fill(line)
				for _, w := range ws {
					if released[w] {
						return false // double release
					}
					released[w] = true
				}
			} else {
				if out := m.Allocate(line, next, false, true); out != AllocStallFull {
					allocated[next] = true
					next++
				}
			}
		}
		// Drain remaining entries.
		for _, line := range lines {
			ws, _ := m.Fill(line)
			for _, w := range ws {
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

// pending reports whether line has an in-flight entry.
func pending(m *MSHR, line addr.Address) bool { return *m.link(line) >= 0 }

// mapMSHR is the map-of-slices table the slot array replaced, with the
// dirty-line set the SIMT core once kept beside it, kept as the reference
// model.
type mapMSHR struct {
	capacity, maxPerEntry, peak int
	entries                     map[addr.Address][]Waiter
	stores                      map[addr.Address]bool
	merged                      uint64
}

func (m *mapMSHR) allocate(line addr.Address, w Waiter, write, fetch bool) Outcome {
	out := AllocStallFull
	if ws, ok := m.entries[line]; ok {
		if m.maxPerEntry > 0 && len(ws) >= m.maxPerEntry {
			return AllocStallFull
		}
		m.entries[line] = append(ws, w)
		m.merged++
		out = AllocMerged
	} else {
		if len(m.entries) >= m.capacity || !fetch {
			return AllocStallFull
		}
		m.entries[line] = []Waiter{w}
		m.peak = max(m.peak, len(m.entries))
		out = AllocNew
	}
	if write {
		m.stores[line] = true
	}
	return out
}

func (m *mapMSHR) fill(line addr.Address) ([]Waiter, bool) {
	ws, write := m.entries[line], m.stores[line]
	delete(m.entries, line)
	delete(m.stores, line)
	return ws, write
}

func TestMSHRMatchesMapReference(t *testing.T) {
	// Random allocate/fill streams over more lines than entries (so hash
	// chains collide, the table fills and entries are recycled), with
	// stores and refused fetches mixed in, must match the reference outcome
	// for outcome, waiter for waiter, dirty flag for dirty flag.
	for _, tc := range []struct{ capacity, mergeCap, lines int }{
		{1, 0, 3}, {3, 2, 8}, {8, 0, 40}, {64, 8, 200},
	} {
		rng := xrand.New(uint64(tc.capacity))
		m := MustNewMSHR(tc.capacity, tc.mergeCap)
		ref := &mapMSHR{capacity: tc.capacity, maxPerEntry: tc.mergeCap,
			entries: map[addr.Address][]Waiter{}, stores: map[addr.Address]bool{}}
		var dirtyFills, refused int
		for op := 0; op < 20000; op++ {
			// Strided like real line addresses: only the bits above the
			// line offset differ.
			line := addr.Address(rng.Intn(tc.lines)) * 64
			if rng.Bool(0.4) {
				got, gotWrite := m.Fill(line)
				want, wantWrite := ref.fill(line)
				if len(got) != len(want) || gotWrite != wantWrite {
					t.Fatalf("cap %d op %d: Fill(%#x) returned %v %v, want %v %v", tc.capacity, op, line, got, gotWrite, want, wantWrite)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cap %d op %d: Fill(%#x) returned %v, want %v", tc.capacity, op, line, got, want)
					}
				}
				if gotWrite {
					dirtyFills++
				}
			} else {
				write, fetch := rng.Bool(0.3), rng.Bool(0.8)
				got, want := m.Allocate(line, Waiter(op), write, fetch), ref.allocate(line, Waiter(op), write, fetch)
				if got != want {
					t.Fatalf("cap %d op %d: Allocate(%#x, write=%v, fetch=%v) = %v, want %v", tc.capacity, op, line, write, fetch, got, want)
				}
				if !fetch && got == AllocStallFull {
					refused++
				}
			}
			_, refPending := ref.entries[line]
			if pending(m, line) != refPending || m.InFlight() != len(ref.entries) ||
				m.Full() != (len(ref.entries) >= tc.capacity) || m.Peak() != ref.peak || m.MergedMisses() != ref.merged {
				t.Fatalf("cap %d op %d: pending=%v inflight=%d full=%v peak=%d merged=%d; reference pending=%v inflight=%d peak=%d merged=%d",
					tc.capacity, op, pending(m, line), m.InFlight(), m.Full(), m.Peak(), m.MergedMisses(),
					refPending, len(ref.entries), ref.peak, ref.merged)
			}
		}
		if dirtyFills == 0 || refused == 0 {
			t.Errorf("cap %d: stream never filled dirty (%d) or refused a fetch (%d)", tc.capacity, dirtyFills, refused)
		}
	}
}

func TestMSHRSteadyStateAllocatesNothing(t *testing.T) {
	m := MustNewMSHR(8, 4)
	cycle := func() {
		for i := 0; i < 8; i++ {
			for w := 0; w < 4; w++ {
				m.Allocate(addr.Address(i*64), Waiter(w), false, true)
			}
		}
		for i := 0; i < 8; i++ {
			if ws, _ := m.Fill(addr.Address(i * 64)); len(ws) != 4 {
				t.Fatalf("fill released %d waiters, want 4", len(ws))
			}
		}
	}
	cycle() // grows every entry's waiter slice once
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state allocate/fill cycle allocates %v times, want 0", allocs)
	}
}
