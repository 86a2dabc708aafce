package fault

import (
	"fmt"
	"strings"
)

// Watchdog detects deadlock from a movement counter: if work is in flight
// but the counter has not advanced for Window cycles, the network is
// wedged. The caller feeds it once per cycle; the watchdog keeps no
// reference to the monitored network. Build one as a literal with its
// Window set; the zero value is a disabled watchdog.
type Watchdog struct {
	Window uint64 // no-movement window; 0 disables (Observe reports healthy)

	lastMove  uint64 // cycle the movement counter last advanced
	lastCount uint64
	primed    bool
}

// Observe records one cycle. moved is a monotonic movement counter (any
// unit: flit events, retired instructions); inFlight is the amount of work
// that should eventually cause movement. It returns true when the
// no-movement window is exceeded while work is in flight.
func (w *Watchdog) Observe(cycle, moved uint64, inFlight int) bool {
	if w == nil || w.Window == 0 {
		return false
	}
	if !w.primed || moved != w.lastCount {
		w.lastCount = moved
		w.lastMove = cycle
		w.primed = true
		return false
	}
	if inFlight == 0 {
		w.lastMove = cycle // idle is not deadlock
		return false
	}
	return cycle-w.lastMove >= w.Window
}

// LastMovement returns the cycle of the last observed movement.
func (w *Watchdog) LastMovement() uint64 { return w.lastMove }

// VCDump is one occupied virtual channel in a diagnostic snapshot.
type VCDump struct {
	Node      int    // router (mesh tile) id
	Port      int    // input port index (0-3 directions, then terminals)
	VC        int    // virtual channel index
	Occupancy int    // buffered flits
	State     string // idle / vc-alloc / active
	PktID     uint64 // packet at the buffer head
	PktAge    uint64 // cycles since that packet was offered
	Hops      int    // switch traversals the head packet has made
	Blocked   string // why the head cannot advance (no credits, ...)
}

// Diagnostic is the structured dump emitted instead of a panic when the
// watchdog (or an audit) trips.
type Diagnostic struct {
	Kind      string // "deadlock", "invariant", "cycle-cap", "timeout", "canceled"
	Cycle     uint64 // cycle the condition was declared
	InFlight  int    // packets in flight (queued, in-network, awaiting retx)
	LastMove  uint64 // last cycle anything moved
	OldestPkt uint64 // age of the oldest in-flight packet, cycles
	VCs       []VCDump
	Notes     []string // free-form component summaries (blocked ports, queue depths)
}

// Empty reports whether the diagnostic carries no detail.
func (d *Diagnostic) Empty() bool {
	return d == nil || (len(d.VCs) == 0 && len(d.Notes) == 0)
}

// String renders the dump in a compact, grep-friendly form.
func (d *Diagnostic) String() string {
	if d == nil {
		return "(no diagnostic)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s at cycle %d: %d in flight, last movement at cycle %d, oldest packet %d cycles old\n",
		d.Kind, d.Cycle, d.InFlight, d.LastMove, d.OldestPkt)
	for _, v := range d.VCs {
		fmt.Fprintf(&b, "  router %d port %d vc %d: %d flits, %s, head pkt %d (age %d, %d hops)",
			v.Node, v.Port, v.VC, v.Occupancy, v.State, v.PktID, v.PktAge, v.Hops)
		if v.Blocked != "" {
			fmt.Fprintf(&b, " blocked: %s", v.Blocked)
		}
		b.WriteByte('\n')
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	return b.String()
}

// HangError wraps a typed failure condition with its diagnostic dump. Use
// errors.Is against ErrDeadlock / ErrCycleCap / ErrInvariant / ErrTimeout /
// ErrCanceled to classify it, and errors.As to reach the dump.
type HangError struct {
	Err  error
	Diag *Diagnostic
}

// Error summarizes the condition; the full dump is in Diag.
func (e *HangError) Error() string {
	if e.Diag == nil {
		return e.Err.Error()
	}
	return fmt.Sprintf("%v (cycle %d, %d in flight)", e.Err, e.Diag.Cycle, e.Diag.InFlight)
}

// Unwrap exposes the typed condition to errors.Is.
func (e *HangError) Unwrap() error { return e.Err }

// Hang wraps cond and diag into a HangError.
func Hang(cond error, diag *Diagnostic) *HangError { return &HangError{Err: cond, Diag: diag} }

// CheckConservation verifies the flit-conservation invariant
//
//	injected == inNetwork + ejected
//
// (with the end-to-end fault model, corrupted flits still traverse and
// eject before their packet is discarded, so no flits vanish mid-network).
// It returns an ErrInvariant-wrapping error describing the imbalance.
func CheckConservation(injected, inNetwork, ejected uint64) error {
	if injected == inNetwork+ejected {
		return nil
	}
	return fmt.Errorf("%w: injected %d != in-network %d + ejected %d (delta %d)",
		ErrInvariant, injected, inNetwork, ejected,
		int64(injected)-int64(inNetwork+ejected))
}
