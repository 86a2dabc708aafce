package main

import "time"

// The sandbox's effective CPU speed is not constant: with nothing else
// running in the VM, the same simulator pass takes 1.1 s one minute and
// 1.8 s the next, and ten runs minutes apart spread by 6-30 % (see
// README.md, "Host noise"). That is more than any regression bound worth
// having, so raw host seconds cannot be end-to-end metrics here. The
// reference kernel is a fixed piece of work shaped like the simulator's
// inner loops: a branchy read-modify-write of 32-byte structs picked at
// random from 1 MiB. The harness runs it before and after every pass and
// scales the pass's host time by the slowdown it saw, so the end-to-end
// times are host seconds at the kernel's nominal speed. The seconds as the
// clock read them are reported beside them (bench.wall_s, bench.ref_speed).
//
// One loop, timed whole: in the noise probe a kernel of this shape alone
// tracked the simulator as well as a blend with a multiply chain, parallel
// xorshift streams and a streaming pass, and the mean slowdown around a
// pass tracked it better than the fastest of several samples.
type refCell struct {
	a, b, c uint32
	q       [5]uint32
}

const (
	refCellCount = 1 << 15 // 32 B each: 1 MiB
	refSteps     = 1_900_000
	// refNominal is how long the kernel takes on the 2.1 GHz Xeon sandbox
	// when it is quiet. It only fixes the scale: with it a reference
	// second is a real second on that host at full speed.
	refNominal = 0.017
	// refKernelMB is what the kernel keeps resident (refCellCount cells of
	// 32 bytes); peak_rss_mb leaves it out.
	refKernelMB = 1.0
)

// refCells is a package-level array, so it lives outside the garbage
// collector's heap and does not move the pacing of the measured passes.
var (
	refCells [refCellCount]refCell
	refSink  uint32 // keeps the work observable so it is not compiled away
)

// refSample runs the kernel once and returns how much slower than nominal
// it ran: 1 on the quiet sandbox, above 1 on a slowed host.
func refSample() float64 {
	t0 := time.Now()
	r, acc := uint64(88172645463325252), refSink
	for i := 0; i < refSteps; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		c := &refCells[r&(refCellCount-1)]
		if c.a&1 == 0 {
			c.a += uint32(r>>20) | 1
			c.q[c.b%5] = c.a
			c.b++
		} else {
			c.c ^= c.q[c.a%5]
			c.a >>= 1
			acc += c.c
		}
		refCells[(r+1)&(refCellCount-1)].c += acc & 3
	}
	refSink = acc
	return time.Since(t0).Seconds() / refNominal
}

// refSpeed turns the slowdowns sampled before and after a timed section
// into the factor that section's host time is multiplied by: below 1 when
// the host ran slower than nominal.
func refSpeed(before, after float64) float64 { return 2 / (before + after) }
