package netsim

import (
	"math"
	"math/rand"
	"net"
	"sync"
)

// FaultConfig parameterizes the chaos-injection conn wrapper: the
// write path of a ChaosConn corrupts and kills traffic at configured
// rates, emulating a hostile WAN between honest peers. Faults are
// injected on the sender side so the reader sees exactly what a
// damaged wire would deliver — flipped bits inside otherwise
// well-formed protocol traffic, and connections that die mid-message.
type FaultConfig struct {
	// BitFlipRate is the per-byte probability that one of the byte's
	// bits is flipped in transit (0 = never). Rates in a real
	// deployment are tiny.
	BitFlipRate float64
	// KillRate is the per-write probability that the connection dies
	// mid-write: a prefix of the buffer is delivered, the rest never
	// arrives, and the connection closes (0 = never).
	KillRate float64
	// Seed drives the fault schedule (same seed, same faults).
	Seed int64
}

// Enabled reports whether the config injects any faults.
func (c FaultConfig) Enabled() bool { return c.BitFlipRate > 0 || c.KillRate > 0 }

// ChaosConn wraps a net.Conn with fault injection on the write path.
type ChaosConn struct {
	net.Conn
	cfg FaultConfig

	mu       sync.Mutex
	rng      *rand.Rand
	nextFlip int64 // bytes until the next bit flip (geometric skip)
	killed   bool

	// Flipped and Killed count injected faults, for harness reporting.
	// Read them after the connection is done.
	Flipped int
	Killed  bool
}

// Chaos wraps conn with fault injection. A config with no fault rates
// returns conn unchanged.
func Chaos(conn net.Conn, cfg FaultConfig) net.Conn {
	if !cfg.Enabled() {
		return conn
	}
	c := &ChaosConn{Conn: conn, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	c.nextFlip = c.skip()
	return c
}

// skip draws a geometric gap (in bytes) to the next bit flip, so the
// per-byte flip check is O(1) amortized instead of one rng draw per
// byte: P(gap = k) = rate·(1-rate)^k.
func (c *ChaosConn) skip() int64 {
	if c.cfg.BitFlipRate <= 0 {
		return math.MaxInt64
	}
	u := c.rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	g := math.Log(u) / math.Log1p(-math.Min(c.cfg.BitFlipRate, 0.999999))
	if g >= math.MaxInt64/2 {
		return math.MaxInt64
	}
	return int64(g)
}

// Write delivers p with faults injected: bytes at geometrically
// sampled positions get one random bit flipped (in a copy — the
// caller's buffer is never mutated), and with probability KillRate
// the write stops after a random prefix and the connection closes.
func (c *ChaosConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	// Decide this write's fate up front, under the lock, so the fault
	// schedule is deterministic even with concurrent writers.
	kill := c.cfg.KillRate > 0 && c.rng.Float64() < c.cfg.KillRate
	cut := len(p)
	if kill {
		c.killed = true
		c.Killed = true
		if len(p) > 0 {
			cut = c.rng.Intn(len(p))
		}
	}
	var out []byte
	for c.nextFlip < int64(cut) {
		if out == nil {
			out = append([]byte(nil), p[:cut]...)
		}
		out[c.nextFlip] ^= 1 << c.rng.Intn(8)
		c.Flipped++
		c.nextFlip += 1 + c.skip()
	}
	c.nextFlip -= int64(cut)
	c.mu.Unlock()

	if out == nil {
		out = p[:cut]
	}
	n, err := c.Conn.Write(out)
	if kill {
		_ = c.Conn.Close()
		if err == nil {
			err = net.ErrClosed
		}
	}
	if n == len(p) || err != nil {
		return n, err
	}
	// Truncated by the kill cut: report the loss as a closed conn.
	return n, net.ErrClosed
}
