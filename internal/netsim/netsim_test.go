package netsim

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

func TestLinkTransferTime(t *testing.T) {
	l := Link{BandwidthBps: Mbps(10)}
	// 10 MB over 10 Mbps = 8 seconds.
	got := l.TransferTime(10e6)
	if got != 8*time.Second {
		t.Fatalf("transfer time = %v", got)
	}
	l.Latency = 50 * time.Millisecond
	if l.TransferTime(0) != 50*time.Millisecond {
		t.Fatal("latency not applied")
	}
	inf := Link{}
	if inf.TransferTime(1e12) != 0 {
		t.Fatal("infinite bandwidth should be instant")
	}
}

func TestUnitHelpers(t *testing.T) {
	if Mbps(10) != 1e7 || Gbps(1) != 1e9 {
		t.Fatal("unit conversions")
	}
}

func TestVirtualClock(t *testing.T) {
	var c VirtualClock
	if c.Now() != 0 {
		t.Fatal("clock should start at zero")
	}
	c.Advance(3 * time.Second)
	c.Advance(-time.Second) // ignored
	if c.Now() != 3*time.Second {
		t.Fatalf("now = %v", c.Now())
	}
	c.AdvanceTo(2 * time.Second) // backwards ignored
	if c.Now() != 3*time.Second {
		t.Fatal("AdvanceTo went backwards")
	}
	c.AdvanceTo(5 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatal("AdvanceTo")
	}
}

func TestVirtualClockConcurrent(t *testing.T) {
	var c VirtualClock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8*1000*time.Microsecond {
		t.Fatalf("lost updates: %v", c.Now())
	}
}

func TestLimitPassthrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if Limit(a, 0) != a {
		t.Fatal("non-positive bps should return conn unchanged")
	}
}

func TestRateLimitedConnPaces(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	var slept time.Duration
	rl := &RateLimitedConn{
		Conn:  a,
		bps:   8 * 1024 * 8, // 8 KiB/s
		now:   time.Now,
		sleep: func(d time.Duration) { slept += d },
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64*1024)
		total := 0
		for total < 16*1024 {
			n, err := b.Read(buf)
			total += n
			if err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 16*1024) // 16 KiB at 8 KiB/s -> ~2s of modeled pacing
	if _, err := rl.Write(msg); err != nil {
		t.Fatal(err)
	}
	<-done
	// First chunk reserves ~0s wait; subsequent chunks accumulate.
	if slept < 1*time.Second {
		t.Fatalf("pacing slept only %v, want ≥1s modeled", slept)
	}
}

// discardConn is a link whose writes cost nothing, so only the pacer
// spends time.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// fakePacer drives a RateLimitedConn on a virtual clock that advances
// only when the pacer sleeps, by the requested time plus overshoot.
func fakePacer(bps float64, overshoot time.Duration) (*RateLimitedConn, *time.Time) {
	clock := time.Unix(1000, 0)
	return &RateLimitedConn{
		Conn:  discardConn{},
		bps:   bps,
		now:   func() time.Time { return clock },
		sleep: func(d time.Duration) { clock = clock.Add(d + overshoot) },
	}, &clock
}

// TestPacerRepaysOversleep: when every sleep overshoots — by a quarter
// of a chunk's slot here — the overslept time comes off the following
// waits, so the long-run rate is the configured one (within 2 %), not
// the rate minus an overshoot per 32 KiB chunk.
func TestPacerRepaysOversleep(t *testing.T) {
	const bps = 100e6
	rl, clock := fakePacer(bps, 650*time.Microsecond) // a 32 KiB slot is 2.6 ms
	start := *clock
	msg := make([]byte, 8<<20)
	if _, err := rl.Write(msg); err != nil {
		t.Fatal(err)
	}
	ideal := time.Duration(float64(len(msg)*8) / bps * float64(time.Second))
	if got := clock.Sub(start); got < ideal*98/100 || got > ideal*102/100 {
		t.Fatalf("8 MiB at 100 Mbps took %v on the pacer's clock, want %v within 2%%", got, ideal)
	}
}

// TestPacerBanksNoIdleTime: a link that sat idle has earned nothing. The
// write after the idle period takes its full serialization time less at
// most the fixed credit, however long the idle period was.
func TestPacerBanksNoIdleTime(t *testing.T) {
	const bps = 100e6
	rl, clock := fakePacer(bps, 0)
	msg := make([]byte, 1<<20)
	ideal := time.Duration(float64(len(msg)*8) / bps * float64(time.Second))
	for _, idle := range []time.Duration{0, time.Second, time.Hour} {
		*clock = clock.Add(idle)
		start := *clock
		if _, err := rl.Write(msg); err != nil {
			t.Fatal(err)
		}
		if got := clock.Sub(start); got < ideal-pacerCredit || got > ideal {
			t.Fatalf("after %v idle, 1 MiB took %v, want between %v and %v", idle, got, ideal-pacerCredit, ideal)
		}
	}
}

func TestPipelinedTimeBounds(t *testing.T) {
	link := Link{BandwidthBps: Mbps(100), Latency: 10 * time.Millisecond}
	chunks := []Chunk{
		{Compute: 5 * time.Millisecond, Bytes: 200_000},
		{Compute: 8 * time.Millisecond, Bytes: 500_000},
		{Compute: 3 * time.Millisecond, Bytes: 100_000},
		{Compute: 6 * time.Millisecond, Bytes: 300_000},
	}
	var totalCompute time.Duration
	var totalBytes int64
	for _, c := range chunks {
		totalCompute += c.Compute
		totalBytes += c.Bytes
	}
	whole := totalCompute + link.TransferTime(totalBytes)
	pipelined := link.PipelinedTime(chunks)
	if pipelined >= whole {
		t.Fatalf("pipelined %v should beat whole-buffer %v", pipelined, whole)
	}
	// Lower bound: neither stage can finish before its own serial work
	// plus latency.
	if lb := totalCompute + link.Latency; pipelined < lb {
		t.Fatalf("pipelined %v below compute bound %v", pipelined, lb)
	}
	if lb := link.TransferTime(totalBytes); pipelined < lb {
		t.Fatalf("pipelined %v below transfer bound %v", pipelined, lb)
	}
}

func TestPipelinedTimeDegenerate(t *testing.T) {
	link := Link{BandwidthBps: Mbps(10), Latency: time.Millisecond}
	// One chunk: no overlap possible — exactly compute + transfer.
	one := []Chunk{{Compute: 7 * time.Millisecond, Bytes: 125_000}}
	want := 7*time.Millisecond + link.TransferTime(125_000)
	if got := link.PipelinedTime(one); got != want {
		t.Fatalf("single chunk: got %v want %v", got, want)
	}
	// No chunks: only the latency term.
	if got := link.PipelinedTime(nil); got != link.Latency {
		t.Fatalf("empty: got %v want %v", got, link.Latency)
	}
	// Infinite bandwidth: transfer free, result is compute + latency.
	fast := Link{}
	if got := fast.PipelinedTime(one); got != 7*time.Millisecond {
		t.Fatalf("infinite bandwidth: got %v", got)
	}
}

func TestJitterSampling(t *testing.T) {
	l := Link{BandwidthBps: Mbps(10), Latency: 10 * time.Millisecond, Jitter: 50 * time.Millisecond}
	base := l.TransferTime(1e6)
	rng := rand.New(rand.NewSource(1))
	var saw bool
	for i := 0; i < 100; i++ {
		d := l.SampleTransferTime(1e6, rng)
		if d < base || d > base+l.Jitter {
			t.Fatalf("sample %v outside [%v, %v]", d, base, base+l.Jitter)
		}
		if d != base {
			saw = true
		}
	}
	if !saw {
		t.Fatal("jitter never perturbed the transfer time")
	}
	if got := l.SampleTransferTime(1e6, nil); got != base {
		t.Fatalf("nil rng sample = %v, want deterministic %v", got, base)
	}
}

func TestProfileSampling(t *testing.T) {
	p := PaperMix()
	rng := rand.New(rand.NewSource(2))
	counts := map[float64]int{}
	for i := 0; i < 5000; i++ {
		c := p.Sample(rng)
		if c.ComputeFactor <= 0 {
			t.Fatal("non-positive compute factor")
		}
		counts[c.Link.BandwidthBps]++
	}
	// All strata must be hit, with the 10 Mbps mass dominating.
	if len(counts) < 3 {
		t.Fatalf("only %d strata sampled", len(counts))
	}
	if counts[Mbps(10)] < counts[Mbps(500)] {
		t.Fatalf("10 Mbps stratum (%d) should outweigh 500 Mbps (%d)",
			counts[Mbps(10)], counts[Mbps(500)])
	}
	var zero Profile
	if !zero.IsZero() {
		t.Fatal("zero profile not IsZero")
	}
	if c := zero.Sample(rng); c.ComputeFactor != 1 || c.Link.BandwidthBps != 0 {
		t.Fatalf("zero profile sample = %+v", c)
	}
}
