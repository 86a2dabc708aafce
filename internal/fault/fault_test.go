package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Rate: -0.1},
		{Rate: 1.5},
		{Rate: 0.1, RetxTimeout: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestEnabledAndMonitored(t *testing.T) {
	c := DefaultConfig()
	if c.Enabled() {
		t.Error("default config must not inject faults")
	}
	if !c.Monitored() {
		t.Error("default config must run the watchdog")
	}
	c = c.WithRate(0.01, 7)
	if !c.Enabled() || c.Seed != 7 {
		t.Error("WithRate did not enable injection")
	}
	c.WatchdogCycles = 0
	if c.Monitored() {
		t.Error("WatchdogCycles=0 must disable monitoring")
	}
}

func TestInjectorDisabledIsNil(t *testing.T) {
	if inj := NewInjector(DefaultConfig()); inj != nil {
		t.Fatal("rate-0 config must yield a nil injector")
	}
	var inj *Injector
	if inj.CorruptFlit() || inj.LoseCredit() || inj.StickVC() {
		t.Error("nil injector fired a fault")
	}
}

func TestInjectorDeterministicAndCalibrated(t *testing.T) {
	cfg := DefaultConfig().WithRate(0.1, 42)
	a, b := NewInjector(cfg), NewInjector(cfg)
	hitsA, hitsB := 0, 0
	const n = 100_000
	for i := 0; i < n; i++ {
		fa, fb := a.CorruptFlit(), b.CorruptFlit()
		if fa != fb {
			t.Fatalf("draw %d diverged between equal-seeded injectors", i)
		}
		if fa {
			hitsA++
		}
		if fb {
			hitsB++
		}
	}
	got := float64(hitsA) / n
	if got < 0.09 || got > 0.11 {
		t.Errorf("corruption rate %.4f far from configured 0.1", got)
	}
	// Credit loss runs at a quarter of the master rate.
	credit := 0
	for i := 0; i < n; i++ {
		if a.LoseCredit() {
			credit++
		}
	}
	if r := float64(credit) / n; r < 0.015 || r > 0.035 {
		t.Errorf("credit-loss rate %.4f far from 0.025", r)
	}
}

func TestRetxDeadlineBackoff(t *testing.T) {
	c := DefaultConfig()
	c.RetxTimeout = 100
	want := []uint64{100, 200, 400, 800, 800, 800} // capped at RetxBackoffMax = 8x
	for i, w := range want {
		if got := c.RetxDeadline(0, i+1); got != w {
			t.Errorf("attempt %d: deadline %d, want %d", i+1, got, w)
		}
	}
}

func TestWatchdogFiresOnlyOnStuckInFlight(t *testing.T) {
	w := &Watchdog{Window: 10}
	moved := uint64(0)
	// Healthy: movement every cycle.
	for c := uint64(0); c < 50; c++ {
		moved++
		if w.Observe(c, moved, 3) {
			t.Fatalf("watchdog fired at cycle %d despite movement", c)
		}
	}
	// Idle: no movement, nothing in flight.
	for c := uint64(50); c < 100; c++ {
		if w.Observe(c, moved, 0) {
			t.Fatalf("watchdog fired at idle cycle %d", c)
		}
	}
	// Wedged: no movement with work in flight.
	fired := uint64(0)
	for c := uint64(100); c < 200; c++ {
		if w.Observe(c, moved, 3) {
			fired = c
			break
		}
	}
	if fired == 0 {
		t.Fatal("watchdog never fired on a wedged network")
	}
	if fired < 109 || fired > 111 {
		t.Errorf("watchdog fired at cycle %d, want ~110", fired)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	w := &Watchdog{}
	for c := uint64(0); c < 1000; c++ {
		if w.Observe(c, 0, 5) {
			t.Fatal("disabled watchdog fired")
		}
	}
	var nilW *Watchdog
	if nilW.Observe(1, 0, 5) {
		t.Fatal("nil watchdog fired")
	}
}

func TestHangErrorWrapping(t *testing.T) {
	diag := &Diagnostic{Kind: "deadlock", Cycle: 123, InFlight: 4,
		VCs: []VCDump{{Node: 3, Port: 1, VC: 0, Occupancy: 8, State: "active", PktID: 9, PktAge: 5000}}}
	err := Hang(ErrDeadlock, diag)
	if !errors.Is(err, ErrDeadlock) {
		t.Error("errors.Is failed to match ErrDeadlock")
	}
	if errors.Is(err, ErrInvariant) {
		t.Error("matched the wrong condition")
	}
	var he *HangError
	if !errors.As(fmt.Errorf("outer: %w", err), &he) || he != err {
		t.Error("errors.As missed a wrapped HangError")
	}
	if diag.Empty() {
		t.Error("populated diagnostic reported Empty")
	}
	out := err.Error() + "\n" + diag.String()
	for _, want := range []string{"deadlock", "cycle 123", "router 3", "pkt 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered diagnostic missing %q:\n%s", want, out)
		}
	}
}

func TestCheckConservation(t *testing.T) {
	if err := CheckConservation(100, 40, 60); err != nil {
		t.Errorf("balanced books flagged: %v", err)
	}
	err := CheckConservation(100, 40, 59)
	if err == nil {
		t.Fatal("missing flit not flagged")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Error("conservation error is not ErrInvariant")
	}
}
