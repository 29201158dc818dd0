package netsim

import (
	"math/rand"
	"time"
)

// ClientProfile characterizes one simulated federation client: its
// uplink and how slow its local compute is relative to the nominal
// client (1 = nominal, 4 = a 4× slower straggler device).
type ClientProfile struct {
	Link          Link
	ComputeFactor float64
}

// withDefaults normalizes a zero ComputeFactor to nominal speed.
func (p ClientProfile) withDefaults() ClientProfile {
	if p.ComputeFactor <= 0 {
		p.ComputeFactor = 1
	}
	return p
}

// ProfileChoice is one stratum of a heterogeneous client population.
type ProfileChoice struct {
	// Weight is the stratum's relative probability mass (any positive
	// scale; weights are normalized at sampling time).
	Weight  float64
	Profile ClientProfile
}

// Profile is a categorical sampler over client strata — the
// population model the simulator draws per-client
// link/compute heterogeneity from.
type Profile struct {
	Choices []ProfileChoice
}

// IsZero reports an unconfigured profile (no choices).
func (p Profile) IsZero() bool { return len(p.Choices) == 0 }

// Sample draws one client profile. A zero profile returns the
// unconstrained nominal client; a nil rng returns the first choice.
func (p Profile) Sample(rng *rand.Rand) ClientProfile {
	if len(p.Choices) == 0 {
		return ClientProfile{ComputeFactor: 1}
	}
	var total float64
	for _, c := range p.Choices {
		if c.Weight > 0 {
			total += c.Weight
		}
	}
	if rng == nil || total <= 0 {
		return p.Choices[0].Profile.withDefaults()
	}
	x := rng.Float64() * total
	for _, c := range p.Choices {
		if c.Weight <= 0 {
			continue
		}
		if x -= c.Weight; x < 0 {
			return c.Profile.withDefaults()
		}
	}
	return p.Choices[len(p.Choices)-1].Profile.withDefaults()
}

// PaperMix is the heterogeneous population used by the scale
// experiment: the paper's three evaluation bandwidths (10/100/500
// Mbps, §VI-C) as strata of a deployment-shaped mix, plus a small
// slow-device stratum that gives round times the long tail stragglers
// cause in practice.
func PaperMix() Profile {
	return Profile{Choices: []ProfileChoice{
		{Weight: 0.45, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Mbps(10), Latency: 40 * time.Millisecond, Jitter: 20 * time.Millisecond},
			ComputeFactor: 1.5,
		}},
		{Weight: 0.33, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Mbps(100), Latency: 15 * time.Millisecond, Jitter: 8 * time.Millisecond},
			ComputeFactor: 1,
		}},
		{Weight: 0.15, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Mbps(500), Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond},
			ComputeFactor: 0.8,
		}},
		{Weight: 0.07, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Mbps(10), Latency: 80 * time.Millisecond, Jitter: 60 * time.Millisecond},
			ComputeFactor: 6,
		}},
	}}
}

// EdgeMix is the client→edge population of a hierarchical tier:
// clients reach their regional edge over a fast local network (campus
// LAN, 5G cell, factory floor), so the strata are bandwidth-rich and
// low-latency compared to PaperMix's WAN uplinks. Compute
// heterogeneity stays — the devices are the same, only the first hop
// got shorter.
func EdgeMix() Profile {
	return Profile{Choices: []ProfileChoice{
		{Weight: 0.5, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Mbps(300), Latency: 3 * time.Millisecond, Jitter: 2 * time.Millisecond},
			ComputeFactor: 1.2,
		}},
		{Weight: 0.35, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Gbps(1), Latency: 1 * time.Millisecond, Jitter: 500 * time.Microsecond},
			ComputeFactor: 1,
		}},
		{Weight: 0.1, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Mbps(100), Latency: 8 * time.Millisecond, Jitter: 4 * time.Millisecond},
			ComputeFactor: 2,
		}},
		{Weight: 0.05, Profile: ClientProfile{
			Link:          Link{BandwidthBps: Mbps(50), Latency: 15 * time.Millisecond, Jitter: 10 * time.Millisecond},
			ComputeFactor: 6,
		}},
	}}
}

// ContendedWAN models the edge→core hop: a WAN link whose capacity is
// shared by sharers concurrent senders (the edges all forwarding their
// partials at the round boundary), with latency left untouched. A
// non-positive sharers count means an uncontended link.
func ContendedWAN(l Link, sharers int) Link {
	if sharers > 1 && l.BandwidthBps > 0 {
		l.BandwidthBps /= float64(sharers)
	}
	return l
}
