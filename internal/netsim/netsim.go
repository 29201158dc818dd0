// Package netsim models constrained networks. The paper emulates low
// bandwidth by sleeping proportionally to message size inside MPI
// (§VI-C); this package provides the two equivalents used here:
//
//   - an analytic Link model + virtual clock for fast, deterministic
//     simulation (used by the experiment harness), and
//   - a token-bucket rate-limited net.Conn wrapper for the real TCP
//     transport (used by the cmd/fedszserver demo).
package netsim

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// Mbps converts megabits/second to bits/second.
func Mbps(x float64) float64 { return x * 1e6 }

// Gbps converts gigabits/second to bits/second.
func Gbps(x float64) float64 { return x * 1e9 }

// Link describes a point-to-point network link.
type Link struct {
	// BandwidthBps is the link bandwidth in bits per second; zero or
	// negative means infinite.
	BandwidthBps float64
	// Latency is the one-way propagation delay added per message.
	Latency time.Duration
	// Jitter is the maximum extra per-message delay. The deterministic
	// TransferTime excludes it; SampleTransferTime draws one uniform
	// realization in [0, Jitter] per message.
	Jitter time.Duration
}

// TransferTime returns the modeled time to move `bytes` across the
// link, including latency but excluding jitter (the deterministic
// lower envelope).
func (l Link) TransferTime(bytes int64) time.Duration {
	d := l.Latency
	if l.BandwidthBps > 0 {
		seconds := float64(bytes*8) / l.BandwidthBps
		d += time.Duration(seconds * float64(time.Second))
	}
	return d
}

// SampleTransferTime returns one realization of the transfer time:
// TransferTime plus a uniform draw in [0, Jitter] from rng. A nil rng
// or zero Jitter degenerates to TransferTime.
func (l Link) SampleTransferTime(bytes int64, rng *rand.Rand) time.Duration {
	d := l.TransferTime(bytes)
	if rng != nil && l.Jitter > 0 {
		d += time.Duration(rng.Float64() * float64(l.Jitter))
	}
	return d
}

// serializeTime is the pure wire-occupancy time for bytes, without
// the per-message latency.
func (l Link) serializeTime(bytes int64) time.Duration {
	if l.BandwidthBps <= 0 {
		return 0
	}
	return time.Duration(float64(bytes*8) / l.BandwidthBps * float64(time.Second))
}

// Chunk is one stage of a pipelined transfer: Compute is the time to
// produce the chunk (e.g. compressing one tensor), Bytes its wire
// size.
type Chunk struct {
	Compute time.Duration
	Bytes   int64
}

// PipelinedTime models a chunked transfer where producing chunk i+1
// overlaps transmitting chunk i — the streaming-encoder transfer
// model. Chunks are produced serially in order (matching the
// deterministic section order of a FedSZ frame on a single-core
// sender) and the wire is a serial resource:
//
//	ready(i)  = Σ Compute(0..i)
//	start(i)  = max(ready(i), finish(i-1))
//	finish(i) = start(i) + Bytes(i)·8/Bandwidth
//
// The result includes the link latency once (first-byte delay). It
// never exceeds the whole-buffer time ΣCompute + TransferTime(ΣBytes),
// and approaches max(ΣCompute, ΣTransfer) as chunks shrink.
func (l Link) PipelinedTime(chunks []Chunk) time.Duration {
	var ready, wireFree time.Duration
	for _, c := range chunks {
		ready += c.Compute
		start := ready
		if wireFree > start {
			start = wireFree
		}
		wireFree = start + l.serializeTime(c.Bytes)
	}
	return wireFree + l.Latency
}

// VirtualClock is a monotonically advancing simulated clock. It lets
// the harness account for hours of simulated transfer time in
// microseconds of wall time.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Duration
}

// Now returns the current simulated time.
func (c *VirtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored) and
// returns the new time.
func (c *VirtualClock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock to at least t and returns the new time —
// used to model a shared serial resource (e.g. a server ingest link).
func (c *VirtualClock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// RateLimitedConn wraps a net.Conn, pacing writes to the configured
// bandwidth with a token-bucket. Reads are unthrottled (the peer's
// writes already are).
type RateLimitedConn struct {
	net.Conn

	mu       sync.Mutex
	bps      float64
	nextFree time.Time
	now      func() time.Time    // test seam; defaults to time.Now
	sleep    func(time.Duration) // test seam; defaults to time.Sleep
}

// pacerCredit is how far behind the clock the token-bucket timeline may
// run. A sleep that overshoots leaves the timeline behind; keeping that
// debt lets the next chunks go out early until it is repaid, so the
// long-run rate is the configured one instead of rate minus every
// overshoot. The cap is what keeps idle time from being banked: however
// long the link sat unused, a write finishes at most this much sooner
// than the rate alone allows. 4 ms covers a timer overshoot and a
// scheduling delay on a busy host, and is 50 KB at 100 Mbps.
const pacerCredit = 4 * time.Millisecond

// Limit wraps conn with a bandwidth cap of bps bits/second. A
// non-positive bps returns conn unchanged.
func Limit(conn net.Conn, bps float64) net.Conn {
	if bps <= 0 {
		return conn
	}
	return &RateLimitedConn{Conn: conn, bps: bps, now: time.Now, sleep: time.Sleep}
}

// Write implements net.Conn with pacing: each chunk reserves its
// transmission slot on the token-bucket timeline and sleeps until the
// slot opens.
func (c *RateLimitedConn) Write(p []byte) (int, error) {
	const chunk = 32 * 1024
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > chunk {
			n = chunk
		}
		c.reserve(n)
		m, err := c.Conn.Write(p[written : written+n])
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

func (c *RateLimitedConn) reserve(n int) {
	cost := time.Duration(float64(n*8) / c.bps * float64(time.Second))
	c.mu.Lock()
	now := c.now()
	if floor := now.Add(-pacerCredit); c.nextFree.Before(floor) {
		c.nextFree = floor
	}
	// The chunk occupies [nextFree, nextFree+cost); Write returns when
	// its transmission window has elapsed, emulating link serialization.
	c.nextFree = c.nextFree.Add(cost)
	wait := c.nextFree.Sub(now)
	sleep := c.sleep
	c.mu.Unlock()
	if wait > 0 {
		sleep(wait)
	}
}
