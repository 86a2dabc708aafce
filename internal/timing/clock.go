// Package timing provides multi-rate clock domains and a deterministic
// scheduler that interleaves them, in the style of GPGPU-Sim's clock-domain
// crossing: on every step, every domain whose next edge is earliest (within
// a small epsilon expressed in integer femtoseconds) ticks once.
//
// The accelerator modeled in this repository uses three domains (Table II of
// the paper): compute cores at 1296 MHz, interconnect and L2 at 602 MHz, and
// GDDR3 DRAM at 1107 MHz.
package timing

import "fmt"

// Domain identifies one clock domain in a Scheduler.
type Domain int

// Clock domains used by the closed-loop simulator.
const (
	DomainCore Domain = iota
	DomainInterconnect
	DomainDRAM
	numDomains
)

// String returns the conventional short name of the domain.
func (d Domain) String() string {
	switch d {
	case DomainCore:
		return "core"
	case DomainInterconnect:
		return "icnt"
	case DomainDRAM:
		return "dram"
	}
	return fmt.Sprintf("domain(%d)", int(d))
}

// femtosPerSecond is the time base. Integer femtoseconds keep the scheduler
// exactly deterministic: there is no floating-point drift between domains.
const femtosPerSecond = 1e15

// domainState tracks one domain's period and next edge.
type domainState struct {
	periodFs uint64 // clock period in femtoseconds
	nextFs   uint64 // absolute time of the next rising edge
	cycles   uint64 // edges elapsed so far
}

// Scheduler interleaves a fixed set of clock domains deterministically.
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	domains [numDomains]domainState
	nowFs   uint64
}

// NewScheduler builds a scheduler with the three standard domains running at
// the given frequencies in MHz. Frequencies must be positive.
func NewScheduler(coreMHz, icntMHz, dramMHz float64) (*Scheduler, error) {
	s := &Scheduler{}
	freqs := [numDomains]float64{coreMHz, icntMHz, dramMHz}
	for d, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("timing: %s frequency must be positive, got %v MHz", Domain(d), f)
		}
		period := uint64(femtosPerSecond / (f * 1e6))
		if period == 0 {
			return nil, fmt.Errorf("timing: %s frequency %v MHz too high to represent", Domain(d), f)
		}
		s.domains[d] = domainState{periodFs: period, nextFs: period}
	}
	return s, nil
}

// MustNewScheduler is NewScheduler but panics on error; intended for the
// standard Table II frequencies which are known to be valid.
func MustNewScheduler(coreMHz, icntMHz, dramMHz float64) *Scheduler {
	s, err := NewScheduler(coreMHz, icntMHz, dramMHz)
	if err != nil {
		panic(err)
	}
	return s
}

// Step advances simulated time to the next clock edge and reports which
// domains tick on that edge. Multiple domains tick together when their edges
// coincide exactly. The returned slice is valid until the next call to Step.
func (s *Scheduler) Step(buf []Domain) []Domain {
	next := s.domains[0].nextFs
	for d := 1; d < int(numDomains); d++ {
		if s.domains[d].nextFs < next {
			next = s.domains[d].nextFs
		}
	}
	s.nowFs = next
	buf = buf[:0]
	for d := 0; d < int(numDomains); d++ {
		st := &s.domains[d]
		if st.nextFs == next {
			st.cycles++
			st.nextFs += st.periodFs
			buf = append(buf, Domain(d))
		}
	}
	return buf
}

// NumDomains is the number of clock domains a Scheduler interleaves,
// exported so callers can size the buffer they pass to Step.
const NumDomains = int(numDomains)

// NowFs returns the current simulated time in femtoseconds.
func (s *Scheduler) NowFs() uint64 { return s.nowFs }

// Cycles returns the number of rising edges domain d has seen.
func (s *Scheduler) Cycles(d Domain) uint64 { return s.domains[d].cycles }

// PeriodFs returns the period of domain d in femtoseconds.
func (s *Scheduler) PeriodFs(d Domain) uint64 { return s.domains[d].periodFs }
