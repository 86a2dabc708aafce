package timing

import (
	"testing"
	"testing/quick"
)

func TestNewSchedulerRejectsBadFrequencies(t *testing.T) {
	cases := []struct{ core, icnt, dram float64 }{
		{0, 602, 1107},
		{1296, -1, 1107},
		{1296, 602, 0},
	}
	for _, c := range cases {
		if _, err := NewScheduler(c.core, c.icnt, c.dram); err == nil {
			t.Errorf("NewScheduler(%v,%v,%v): want error, got nil", c.core, c.icnt, c.dram)
		}
	}
}

func TestSchedulerRelativeRates(t *testing.T) {
	// Over a long horizon the cycle counts must track the frequency ratios.
	s := MustNewScheduler(1296, 602, 1107)
	var buf []Domain
	for i := 0; i < 3_000_000; i++ {
		buf = s.Step(buf)
		if len(buf) == 0 {
			t.Fatal("Step returned no ticking domains")
		}
	}
	core := float64(s.Cycles(DomainCore))
	icnt := float64(s.Cycles(DomainInterconnect))
	dram := float64(s.Cycles(DomainDRAM))
	checkRatio(t, "core/icnt", core/icnt, 1296.0/602.0)
	checkRatio(t, "dram/icnt", dram/icnt, 1107.0/602.0)
}

func checkRatio(t *testing.T, name string, got, want float64) {
	t.Helper()
	if diff := got/want - 1; diff > 1e-3 || diff < -1e-3 {
		t.Errorf("%s ratio: got %v, want %v (diff %v)", name, got, want, diff)
	}
}

func TestSchedulerEqualFrequenciesTickTogether(t *testing.T) {
	s := MustNewScheduler(1000, 1000, 1000)
	var buf []Domain
	for i := 0; i < 100; i++ {
		buf = s.Step(buf)
		if len(buf) != 3 {
			t.Fatalf("step %d: want all 3 domains ticking together, got %v", i, buf)
		}
	}
	if s.Cycles(DomainCore) != 100 || s.Cycles(DomainDRAM) != 100 {
		t.Errorf("cycle counts: core=%d dram=%d, want 100 each", s.Cycles(DomainCore), s.Cycles(DomainDRAM))
	}
}

func TestSchedulerTimeMonotonic(t *testing.T) {
	s := MustNewScheduler(1296, 602, 1107)
	var buf []Domain
	prev := uint64(0)
	for i := 0; i < 10000; i++ {
		buf = s.Step(buf)
		if s.NowFs() <= prev {
			t.Fatalf("time not strictly increasing at step %d: %d -> %d", i, prev, s.NowFs())
		}
		prev = s.NowFs()
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []uint64 {
		s := MustNewScheduler(1296, 602, 1107)
		var buf []Domain
		var trace []uint64
		for i := 0; i < 5000; i++ {
			buf = s.Step(buf)
			var mask uint64
			for _, d := range buf {
				mask |= 1 << uint(d)
			}
			trace = append(trace, s.NowFs()<<3|mask)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at step %d", i)
		}
	}
}

func TestSchedulerTruncatedPeriodDrift(t *testing.T) {
	// Periods are truncated to integer femtoseconds (1296 MHz → 771604 fs,
	// exact value 771604.938…), so domain edges drift slightly fast
	// relative to ideal real time. This test documents the drift bound:
	// after N edges the accumulated error is N × frac(period) < N fs, i.e.
	// under one nanosecond per million cycles.
	s := MustNewScheduler(1296, 602, 1107)
	const n = 1_000_000
	var buf []Domain
	for s.Cycles(DomainCore) < n {
		buf = s.Step(buf)
	}
	if s.NowFs() != n*s.PeriodFs(DomainCore) {
		t.Fatalf("core edge %d at %d fs, want %d × period", n, s.NowFs(), n)
	}
	idealFs := float64(n) * femtosPerSecond / (1296e6)
	truncFs := float64(s.NowFs())
	drift := idealFs - truncFs
	if drift < 0 || drift > n {
		t.Fatalf("truncation drift %v fs outside [0, %d) fs after %d cycles", drift, n, n)
	}
}

func TestSchedulerPropertyCycleCountMatchesPeriod(t *testing.T) {
	// Property: after any number of steps, cycles(d)*period(d) is within one
	// period of current time for every domain.
	f := func(steps uint16) bool {
		s := MustNewScheduler(1296, 602, 1107)
		var buf []Domain
		n := int(steps%2000) + 1
		for i := 0; i < n; i++ {
			buf = s.Step(buf)
		}
		for d := DomainCore; d <= DomainDRAM; d++ {
			elapsed := s.Cycles(d) * s.PeriodFs(d)
			if elapsed > s.NowFs()+s.PeriodFs(d) || elapsed+s.PeriodFs(d) < s.NowFs() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
