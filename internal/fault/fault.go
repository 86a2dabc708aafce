// Package fault is the simulator's fault-injection and resilience toolkit.
// It supplies three things to the rest of the stack:
//
//   - a deterministic fault model: seeded, schedulable transient faults on
//     links (flit corruption), router input VCs (stuck buffer control) and
//     credit channels (lost credit, recovered by a timeout resync), drawn
//     from an Injector that is independent of the traffic RNG so enabling
//     faults never perturbs a run's packet streams;
//   - a health Watchdog: a cycle-driven monitor that detects deadlock (no
//     flit movement for a window of cycles while packets are in flight) and
//     that, together with periodic flit-conservation audits, turns silent
//     hangs into typed errors carrying a structured Diagnostic dump instead
//     of a panic;
//   - the typed error vocabulary (ErrDeadlock, ErrCycleCap, ErrInvariant,
//     ErrTimeout, ErrCanceled) that lets the experiment harness record a
//     degraded-but-reported result per benchmark rather than aborting.
//
// Routes are minimal or two-phase minimal on every backend, retransmissions
// included, so a packet cannot wander and there is no livelock verdict; a
// component outside the network that stops working ends its run at the
// closed loop's cycle cap.
//
// The network's recovery mechanism (end-to-end sequence tracking with
// timeout retransmission at the injecting network interfaces) lives in
// internal/noc; this package holds the policy knobs and the shared
// machinery that must not depend on the network implementation.
package fault

import (
	"errors"
	"fmt"

	"repro/internal/xrand"
)

// Typed failure conditions surfaced by the watchdog and the run harness.
// They are wrapped in a *HangError carrying the diagnostic dump; match with
// errors.Is.
var (
	// ErrDeadlock: packets are in flight but nothing has moved for the
	// watchdog window.
	ErrDeadlock = errors.New("fault: network deadlock detected")
	// ErrCycleCap: a closed-loop run hit its safety cycle cap.
	ErrCycleCap = errors.New("fault: simulation hit the cycle cap")
	// ErrInvariant: a conservation audit failed (flits created or lost).
	ErrInvariant = errors.New("fault: flit conservation violated")
	// ErrTimeout: the run exceeded its wall-clock deadline (the harness's
	// per-run context timed out). Unlike ErrCycleCap this is a property of
	// the host machine, not the simulated system, so it is the one verdict
	// a retry can legitimately clear.
	ErrTimeout = errors.New("fault: run exceeded its wall-clock deadline")
	// ErrCanceled: the run was abandoned because the whole sweep was
	// cancelled (SIGINT/SIGTERM or a parent context). Never retried and
	// never checkpointed.
	ErrCanceled = errors.New("fault: run canceled")
)

// StuckCycles is how long a stuck-VC fault freezes an input VC's switch
// allocation.
const StuckCycles = 64

// RetxBackoffMax caps the exponential backoff multiplier applied to
// Config.RetxTimeout on successive retries (1, 2, 4, 8).
const RetxBackoffMax = 8

// Config parameterizes fault injection and health monitoring for one run.
// The zero value disables injection; DefaultConfig enables only the
// watchdog.
type Config struct {
	// Rate is the master fault probability. It applies per flit-delivery
	// for link corruption; credit loss and stuck-VC events are derived from
	// it (Rate/4 per credit and Rate per cycle respectively). 0 disables
	// injection entirely: no fault RNG is created and no draws happen, so a
	// zero-rate run is bit-identical to one without the subsystem.
	Rate float64
	// Seed seeds the fault injector's private RNG stream.
	Seed uint64

	// CreditResyncCycles models the credit-resync protocol: a lost credit
	// is recovered (redelivered upstream) after this many cycles.
	CreditResyncCycles uint64

	// RetxTimeout is the end-to-end retransmission timeout in network
	// cycles: a transfer not acknowledged (delivered) within the timeout is
	// re-injected at the source network interface. Retries are unlimited:
	// faults are transient, so every transfer is eventually delivered.
	RetxTimeout uint64

	// WatchdogCycles is the no-movement window after which the watchdog
	// declares deadlock; 0 disables the watchdog and the conservation
	// audit, which otherwise runs every WatchdogCycles/4 cycles.
	WatchdogCycles uint64
}

// DefaultConfig returns the default policy: injection off, watchdog on with
// a window far beyond any legitimate stall, timeout retransmission with
// exponential backoff and unlimited retries.
func DefaultConfig() Config {
	return Config{
		Rate:               0,
		Seed:               1,
		CreditResyncCycles: 512,
		RetxTimeout:        4096,
		WatchdogCycles:     50_000,
	}
}

// Enabled reports whether fault injection is active.
func (c Config) Enabled() bool { return c.Rate > 0 }

// Monitored reports whether the health watchdog is active.
func (c Config) Monitored() bool { return c.WatchdogCycles > 0 }

// WithRate returns the config with the master fault rate (and seed) set.
func (c Config) WithRate(rate float64, seed uint64) Config {
	c.Rate = rate
	c.Seed = seed
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("fault: rate %v outside [0,1]", c.Rate)
	}
	if c.Enabled() && c.RetxTimeout == 0 {
		return fmt.Errorf("fault: injection needs a positive RetxTimeout")
	}
	return nil
}

// RetxDeadline returns the cycle a transfer's next retransmission fires,
// given the attempt count so far (1 = the original injection). Backoff is
// exponential in the retry count, capped at RetxBackoffMax.
func (c Config) RetxDeadline(now uint64, attempts int) uint64 {
	mult := uint64(1)
	for i := 1; i < attempts && mult < RetxBackoffMax; i++ {
		mult *= 2
	}
	return now + c.RetxTimeout*mult
}

// Injector draws fault events from a private deterministic stream. All
// methods are cheap; callers must not invoke them when the corresponding
// rate is zero if they need bit-identical no-fault behaviour (Config.Rate 0
// yields a nil-safe injector that never fires and never draws).
type Injector struct {
	rng        *xrand.Rand
	flitRate   float64
	creditRate float64
	vcRate     float64
}

// NewInjector builds an injector for cfg, or nil when injection is off.
func NewInjector(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{
		rng:        xrand.New(cfg.Seed ^ 0x666175_6c74), // "fault", decorrelated from traffic seeds
		flitRate:   cfg.Rate,
		creditRate: cfg.Rate / 4,
		vcRate:     cfg.Rate,
	}
}

// CorruptFlit reports whether the current flit delivery is corrupted.
func (i *Injector) CorruptFlit() bool {
	if i == nil {
		return false
	}
	return i.rng.Bool(i.flitRate)
}

// LoseCredit reports whether the current credit transfer is lost (to be
// recovered by the resync timeout).
func (i *Injector) LoseCredit() bool {
	if i == nil {
		return false
	}
	return i.rng.Bool(i.creditRate)
}

// StickVC reports whether a stuck-VC fault strikes this cycle.
func (i *Injector) StickVC() bool {
	if i == nil {
		return false
	}
	return i.rng.Bool(i.vcRate)
}

// Pick returns a uniform int in [0, n) from the fault stream (used to place
// stuck-VC faults).
func (i *Injector) Pick(n int) int { return i.rng.Intn(n) }
