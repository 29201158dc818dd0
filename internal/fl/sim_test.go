package fl

import (
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/hier"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/netsim"
)

// smallFleet keeps simulator tests fast: tiny model, six clients, few
// samples, two rounds, FedSZ uplinks.
func smallFleet(t *testing.T) SimConfig {
	t.Helper()
	codec, err := NewFedSZCodec(core.Config{Lossy: core.LossySZ2, Bound: lossy.RelBound(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	return SimConfig{
		Model:            "alexnet",
		Clients:          6,
		Rounds:           2,
		SamplesPerClient: 40,
		TestSamples:      60,
		BatchSize:        20,
		Codec:            codec,
		Link:             netsim.Link{BandwidthBps: netsim.Mbps(100)},
		Seed:             3,
	}
}

// tiered puts cfg's clients behind edges regional aggregators that
// forward checksummed partials over a 1 Gbps trunk.
func tiered(cfg SimConfig, edges int) SimConfig {
	cfg.Edges = edges
	cfg.Wire = hier.WireOptions{Checksum: true}
	cfg.EdgeLink = netsim.Link{BandwidthBps: netsim.Gbps(1)}
	return cfg
}

func TestOrchestratedSyncSim(t *testing.T) {
	cfg := smallFleet(t)
	cfg.ClientsPerRound = 4
	cfg.OverProvision = 1.5
	cfg.Population = netsim.PaperMix()
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("rounds = %d, want %d", len(res.Rounds), cfg.Rounds)
	}
	for _, m := range res.Rounds {
		// ceil(4·1.5) = 6 sampled, target 4 ⇒ 2 over-provisioned spares
		// dropped once the round fills.
		if m.Participants != 6 {
			t.Fatalf("round %d sampled %d, want 6", m.Round, m.Participants)
		}
		if m.Dropped != 2 {
			t.Fatalf("round %d dropped %d, want 2", m.Round, m.Dropped)
		}
		if m.CommTime <= 0 {
			t.Fatalf("round %d has no virtual comm time", m.Round)
		}
		if m.BytesUplink <= 0 || m.BytesUplink >= m.OriginalBytes {
			t.Fatalf("round %d bytes %d / %d not compressed", m.Round, m.BytesUplink, m.OriginalBytes)
		}
	}
	if res.FinalAccuracy() <= 0 {
		t.Fatal("no accuracy recorded")
	}
}

func TestOrchestratedSyncDeadlineDrops(t *testing.T) {
	cfg := smallFleet(t)
	// All clients on a link so slow that only the progress guarantee
	// (accept the earliest arrival) lets the round commit.
	cfg.Link = netsim.Link{BandwidthBps: netsim.Mbps(0.1)}
	cfg.RoundDeadline = time.Nanosecond
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Rounds {
		if got := m.Participants - m.Dropped; got != 1 {
			t.Fatalf("round %d committed %d updates, want exactly the earliest", m.Round, got)
		}
	}
}

// TestSimRejectsIgnoredConfig: a setting the chosen shape would
// silently ignore is an error, not a no-op.
func TestSimRejectsIgnoredConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*SimConfig)
	}{
		{"edges/clients-per-round", func(c *SimConfig) { c.Edges, c.ClientsPerRound = 2, 3 }},
		{"edges/over-provision", func(c *SimConfig) { c.Edges, c.OverProvision = 2, 1.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallFleet(t)
			tc.set(&cfg)
			if _, err := RunSim(cfg); err == nil {
				t.Fatal("RunSim accepted a setting it would ignore")
			}
		})
	}
}

// sameAcrossEdges is the simulator-level equivalence check: the same
// population run with each of edgeCounts (0 = flat) commits the same
// global models and client bytes, because partial sums compose
// exactly whatever the fan-in.
func sameAcrossEdges(t *testing.T, edgeCounts ...int) {
	t.Helper()
	var base *SimResult
	for _, edges := range edgeCounts {
		res, err := RunSim(tiered(smallFleet(t), edges))
		if err != nil {
			t.Fatal(err)
		}
		if (res.Tier == nil) != (edges == 0) || (res.Tier != nil && res.Tier.Edges != edges) {
			t.Fatalf("ran tier %+v, want %d edges", res.Tier, edges)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Rounds) != len(base.Rounds) {
			t.Fatalf("%d edges committed %d rounds, %d edges committed %d", edges, len(res.Rounds), edgeCounts[0], len(base.Rounds))
		}
		for i := range base.Rounds {
			if res.Rounds[i].TestAccuracy != base.Rounds[i].TestAccuracy {
				t.Fatalf("round %d accuracy diverged with %d edges: %v vs %v — regional folding changed the model",
					i, edges, res.Rounds[i].TestAccuracy, base.Rounds[i].TestAccuracy)
			}
			if res.Rounds[i].BytesUplink != base.Rounds[i].BytesUplink {
				t.Fatalf("round %d client bytes diverged with %d edges: %d vs %d",
					i, edges, res.Rounds[i].BytesUplink, base.Rounds[i].BytesUplink)
			}
		}
	}
}

// TestHierSimMatchesFlatSim: one edge only regroups the same
// unnormalised sums, so it commits what the flat coordinator commits.
func TestHierSimMatchesFlatSim(t *testing.T) { sameAcrossEdges(t, 0, 1) }

// TestHierSimMatchesAcrossFanIn: partitioning the same population into
// 1, 2 or 3 regions commits the same global models.
func TestHierSimMatchesAcrossFanIn(t *testing.T) { sameAcrossEdges(t, 1, 2, 3) }

// TestHierSimTierStats checks the tier-level accounting: one partial
// per region per round, both tiers' wire bytes measured, both tiers'
// aggregator memory observed, and the coordinator's fan-in equal to
// the region count rather than the population.
func TestHierSimTierStats(t *testing.T) {
	cfg := tiered(smallFleet(t), 3)
	cfg.Wire = hier.WireOptions{Checksum: true, Lossless: lossless.NameZlib}
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := res.Tier
	if hs.Partials != cfg.Edges*cfg.Rounds {
		t.Fatalf("folded %d partials, want %d (edges × rounds)", hs.Partials, cfg.Edges*cfg.Rounds)
	}
	if hs.ClientDrops != 0 {
		t.Fatalf("unexpected withdrawals: %+v", hs)
	}
	if hs.ClientBytes <= 0 || hs.PartialBytes <= 0 {
		t.Fatalf("wire bytes not measured: %+v", hs)
	}
	if hs.PeakEdgeMemory <= 0 || hs.PeakCoreMemory <= 0 {
		t.Fatalf("aggregator memory not measured: %+v", hs)
	}
	// Fan-in at the core is regions, not clients.
	for _, m := range res.Rounds {
		if m.Participants != cfg.Clients {
			t.Fatalf("round %d accepted %d client updates, want %d", m.Round, m.Participants, cfg.Clients)
		}
	}
}

// TestHierSimRegionalDeadline: with a crushing regional deadline, each
// region still forwards its earliest arrival (progress guarantee) and
// cuts the rest at the edge — stragglers never cross the WAN.
func TestHierSimRegionalDeadline(t *testing.T) {
	cfg := tiered(smallFleet(t), 3)
	cfg.Link = netsim.Link{BandwidthBps: netsim.Mbps(0.1)}
	cfg.RoundDeadline = time.Nanosecond
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("committed %d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	// 6 clients, 3 regions, 1 survivor per region per round.
	hs := res.Tier
	wantDrops := (cfg.Clients - cfg.Edges) * cfg.Rounds
	if hs.ClientDrops != wantDrops {
		t.Fatalf("edge tier cut %d stragglers, want %d", hs.ClientDrops, wantDrops)
	}
	if hs.Partials != cfg.Edges*cfg.Rounds {
		t.Fatalf("folded %d partials, want every region's survivor forwarded", hs.Partials)
	}
	for _, m := range res.Rounds {
		if got := m.Participants - m.Dropped; got != cfg.Edges {
			t.Fatalf("round %d folded %d clients (%d asked, %d dropped), want one per region",
				m.Round, got, m.Participants, m.Dropped)
		}
	}
}

// deterministic pins the virtual schedule to the seed: two identical
// runs with edges regions (0 = flat, sampled and over-provisioned)
// produce identical round timings, drop counts, byte totals, tier stats
// and model trajectory (the schedule is modelled from sample counts,
// never from measured wall time).
func deterministic(t *testing.T, edges int) {
	t.Helper()
	run := func() *SimResult {
		cfg := smallFleet(t)
		cfg.RoundDeadline = 60 * time.Millisecond // cuts some clients in both shapes
		if edges == 0 {
			cfg.ClientsPerRound = 4
			cfg.OverProvision = 1.5
			cfg.Population = netsim.PaperMix()
		} else {
			cfg = tiered(cfg, edges)
			cfg.Population = netsim.EdgeMix()
			cfg.EdgeLink = netsim.ContendedWAN(netsim.Link{BandwidthBps: netsim.Mbps(500)}, edges)
		}
		res, err := RunSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if (a.Tier == nil) != (b.Tier == nil) || (a.Tier != nil && *a.Tier != *b.Tier) {
		t.Fatalf("%d edges: tier stats diverged: %+v vs %+v", edges, a.Tier, b.Tier)
	}
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("%d edges: round counts differ: %d vs %d", edges, len(a.Rounds), len(b.Rounds))
	}
	if a.Rounds[0].Dropped == 0 {
		t.Fatalf("%d edges: the deadline cut nothing", edges)
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if ra.CommTime != rb.CommTime || ra.Dropped != rb.Dropped || ra.BytesUplink != rb.BytesUplink || ra.TestAccuracy != rb.TestAccuracy {
			t.Fatalf("%d edges: round %d diverged: (%v,%d,%d,%v) vs (%v,%d,%d,%v)", edges, i,
				ra.CommTime, ra.Dropped, ra.BytesUplink, ra.TestAccuracy, rb.CommTime, rb.Dropped, rb.BytesUplink, rb.TestAccuracy)
		}
	}
}

// TestOrchestratedSimDeterministicSchedule: flat, PaperMix, sampling
// with over-provisioning and a deadline.
func TestOrchestratedSimDeterministicSchedule(t *testing.T) { deterministic(t, 0) }

// TestHierSimDeterministic: three regions, EdgeMix, a contended WAN
// trunk and a deadline.
func TestHierSimDeterministic(t *testing.T) { deterministic(t, 3) }
