package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/workload"
)

func TestFaultyClosedLoopCompletes(t *testing.T) {
	cfg := Baseline(quickProfile("LL")).WithFaults(0.002, 7)
	cfg.Noc.Fault.RetxTimeout = 512
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("faulty run failed: %v", err)
	}
	if !res.OK() || res.TimedOut {
		t.Fatalf("faulty run degraded: status %q timedOut %v", res.Status, res.TimedOut)
	}
	if res.RetxPackets == 0 || res.DroppedPackets == 0 {
		t.Errorf("fault path not exercised: retx=%d dropped=%d", res.RetxPackets, res.DroppedPackets)
	}
	if res.AvgRetries <= 0 {
		t.Errorf("AvgRetries = %v with faults active", res.AvgRetries)
	}
	// Every instruction still retires: the resilience layer recovers all
	// lost memory traffic.
	want := uint64(28 * 8 * 60 * 32)
	if res.ScalarInstrs != want {
		t.Errorf("scalar instrs = %d, want %d", res.ScalarInstrs, want)
	}
}

func TestFaultyRunsDeterministic(t *testing.T) {
	cfg := Baseline(quickProfile("HH")).WithFaults(0.005, 42)
	cfg.Noc.Fault.RetxTimeout = 512
	a := MustRun(cfg)
	b := MustRun(cfg)
	if a.IPC != b.IPC || a.IcntCycles != b.IcntCycles ||
		a.RetxPackets != b.RetxPackets || a.DroppedPackets != b.DroppedPackets {
		t.Errorf("equal-seeded faulty runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestZeroFaultRateUnchanged(t *testing.T) {
	p := quickProfile("HH")
	base := MustRun(Baseline(p))
	faulted := MustRun(Baseline(p).WithFaults(0, 99)) // rate 0: injector absent
	if base.IPC != faulted.IPC || base.IcntCycles != faulted.IcntCycles ||
		base.AvgNetLatency != faulted.AvgNetLatency {
		t.Errorf("rate-0 fault config perturbed the run: %+v vs %+v", base, faulted)
	}
	if faulted.RetxPackets != 0 || faulted.DroppedPackets != 0 {
		t.Error("rate-0 run recorded fault activity")
	}
}

func TestCycleCapReturnsTypedError(t *testing.T) {
	cfg := Baseline(quickProfile("HH"))
	cfg.MaxIcntCycles = 200 // far too few to finish
	res, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("capped run returned no error")
	}
	if !errors.Is(err, fault.ErrCycleCap) {
		t.Fatalf("error %v is not ErrCycleCap", err)
	}
	var he *fault.HangError
	if !errors.As(err, &he) || he.Diag.Empty() {
		t.Fatal("cycle-cap verdict lacks a diagnostic")
	}
	if !res.TimedOut || res.Status != "cycle-cap" {
		t.Errorf("result not marked degraded: timedOut=%v status=%q", res.TimedOut, res.Status)
	}
	if res.IcntCycles == 0 {
		t.Error("degraded result carries no statistics")
	}
	// MustRun tolerates hang verdicts (graceful degradation, no panic).
	if r := MustRun(cfg); r.Status != "cycle-cap" {
		t.Errorf("MustRun status = %q, want cycle-cap", r.Status)
	}
}

func TestWedgedNetworkSurfacesDeadlock(t *testing.T) {
	cfg := Baseline(quickProfile("HH")).WithFaults(1, 3)
	cfg.Noc.Fault.CreditResyncCycles = 1 << 40
	cfg.Noc.Fault.RetxTimeout = 1 << 40
	cfg.Noc.Fault.WatchdogCycles = 2000
	res, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("wedged system completed")
	}
	if !isHang(err) {
		t.Fatalf("wedged system returned a non-hang error: %v", err)
	}
	if errors.Is(err, fault.ErrDeadlock) && res.Status != "deadlock" {
		t.Errorf("status %q does not match verdict %v", res.Status, err)
	}
	if res.OK() {
		t.Errorf("degraded run reported status %q", res.Status)
	}
}

// TestHangVerdictsDeterministic pins that a hang verdict is a pure function
// of the Config: two solo runs and lane 0 of a width-2 lane batch end with
// the same status, error text and diagnostic dump. "invariant" needs a flit
// lost from the network's books, which no Config reaches: its row adds one
// flit to the injection books of every solo system and of lane 0 before
// stepping, the loss TestEveryVerdictReachable injects.
func TestHangVerdictsDeterministic(t *testing.T) {
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	base := Baseline(bin).ScaleWork(0.01)
	deadlock := base.WithFaults(0.05, 3).WithWatchdog(500)
	deadlock.Noc.Fault.RetxTimeout = 1000
	capped := base
	capped.MaxIcntCycles = 300
	noLoss := func(*System) {}
	loseFlit := func(s *System) { s.NetStats().InjectedFlits[0]++ }
	for _, tc := range []struct {
		status string
		cfg    Config
		arm    func(*System)
	}{
		{StatusDeadlock, deadlock, noLoss},
		{StatusCycleCap, capped, noLoss},
		{StatusInvariant, base.WithWatchdog(500), loseFlit},
	} {
		t.Run(tc.status, func(t *testing.T) {
			var got []string
			for i := 0; i < 2; i++ {
				s, err := NewSystem(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				tc.arm(s)
				res, err := s.Run(context.Background())
				got = append(got, hangVerdict(t, res, err))
			}
			lanes, errs := newLanes(tc.cfg, []uint64{tc.cfg.Seed, tc.cfg.Seed + 1})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			tc.arm(lanes[0])
			stepLanes(context.Background(), lanes)
			got = append(got, hangVerdict(t, lanes[0].res, lanes[0].runErr))
			if !strings.HasPrefix(got[0], tc.status+"\n") {
				t.Fatalf("verdict = %q, want status %q", got[0], tc.status)
			}
			for i, v := range got[1:] {
				if v != got[0] {
					t.Errorf("run %d verdict differs from the first solo run:\n%s\nvs\n%s", i+1, v, got[0])
				}
			}
		})
	}
}

// hangVerdict renders a hang's status, error text and diagnostic dump.
func hangVerdict(t *testing.T, res Result, err error) string {
	t.Helper()
	if !isHang(err) {
		t.Fatalf("status %q: error %v is not a hang", res.Status, err)
	}
	return res.Status + "\n" + verdictOf(err)
}

// isHang reports whether err carries a *fault.HangError.
func isHang(err error) bool {
	var he *fault.HangError
	return errors.As(err, &he)
}
