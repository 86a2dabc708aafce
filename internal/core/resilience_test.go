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
	if !fault.AsHang(err, &he) || he.Diag.Empty() {
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
	if !fault.IsHang(err) {
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
// of the Config: two solo runs and lane 0 of a width-2 RunLanes batch end
// with the same status, error text and diagnostic dump. These are the hang
// verdicts a Config reaches; "invariant" needs a flit lost from the
// network's books, which only a test that edits a built System can inject
// (TestEveryVerdictReachable).
func TestHangVerdictsDeterministic(t *testing.T) {
	bin, err := workload.ByAbbr("BIN")
	if err != nil {
		t.Fatal(err)
	}
	deadlock := Baseline(bin).ScaleWork(0.01).WithFaults(0.05, 3).WithWatchdog(500)
	deadlock.Noc.Fault.RetxTimeout = 1000
	capped := Baseline(bin).ScaleWork(0.01)
	capped.MaxIcntCycles = 300
	for _, tc := range []struct {
		status string
		cfg    Config
	}{
		{"deadlock", deadlock},
		{"cycle-cap", capped},
	} {
		t.Run(tc.status, func(t *testing.T) {
			var got []string
			for i := 0; i < 2; i++ {
				res, err := Run(context.Background(), tc.cfg)
				got = append(got, hangVerdict(t, res, err))
			}
			results, errs := RunLanes(context.Background(), tc.cfg, []uint64{tc.cfg.Seed, tc.cfg.Seed + 1})
			got = append(got, hangVerdict(t, results[0], errs[0]))
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
	if !fault.IsHang(err) {
		t.Fatalf("status %q: error %v is not a hang", res.Status, err)
	}
	return res.Status + "\n" + verdictOf(err)
}
