package main

import "time"

// The reference box is a shared two-core VM whose speed drifts by a
// tenth over minutes: ten back-to-back runs of one commit spread 12 % on
// flat_plain's median round, and the drift hits every workload alike. A
// fixed kernel timed in the same process tracks it (correlation 0.8 to
// 0.95 with the round time), so an untraced run times a burst of the
// kernel every few seconds, between rounds, and reports its time metrics
// in reference seconds: measured seconds × hostNominal / the median
// burst. Scaling each stretch of rounds by the bursts next to it was
// tried and is no steadier than this one factor per run. Parent and
// change are scaled by the same rule, and the kernel is the benchmark's
// own code, so no change to the repository can move it.

// hostNominal is one pass of the kernel on the reference box when quiet.
const hostNominal = 2260 * time.Microsecond

// burstEvery is how much of the timed window runs between two bursts.
const burstEvery = 2 * time.Second

// hostScale is the factor that turns a run's seconds into reference
// seconds: 1 when no burst was taken.
func hostScale(passes []float64) float64 {
	if len(passes) == 0 {
		return 1
	}
	return hostNominal.Seconds() / median(passes)
}

// hostKernel times bursts of a fixed kernel: xorshift arithmetic,
// scattered writes over a buffer twice the size of a core's L2, then a
// streaming copy — the mix of compute and shared-cache traffic a round is
// made of.
type hostKernel struct {
	buf, dst []byte
	x        uint64
}

func newHostKernel() *hostKernel {
	return &hostKernel{buf: make([]byte, 8<<20), dst: make([]byte, 8<<20), x: 88172645463325252}
}

// pass runs one burst and returns the median seconds per pass.
func (h *hostKernel) pass() float64 {
	times := make([]float64, 20)
	for i := range times {
		start := time.Now()
		x := h.x
		for j := 0; j < 400_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			h.buf[x%uint64(len(h.buf))] += byte(x)
		}
		h.x = x
		copy(h.dst, h.buf)
		times[i] = time.Since(start).Seconds()
	}
	return median(times)
}
