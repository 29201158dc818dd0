// Example scale runs the federated simulation two ways over one
// config — flat rounds with over-provisioned sampling and a straggler
// deadline, and a 2-tier run where regional edge aggregators fold
// their clients and forward one partial sum each — over a
// heterogeneous client population, with FedSZ-compressed uplinks
// folding into the streaming sharded aggregator. All times are virtual. The tiered
// section prints per-tier bytes-on-wire: the client→edge uplink
// traffic next to the (much smaller count of) edge→core partial frames.
//
//	go run ./examples/scale
package main

import (
	"fmt"
	"log"
	"time"

	"fedsz"
)

func main() {
	codec, err := fedsz.NewCodec(fedsz.WithRelBound(1e-2))
	if err != nil {
		log.Fatal(err)
	}

	base := fedsz.SimConfig{
		Model:            "mobilenetv2",
		Clients:          24,
		Rounds:           3,
		SamplesPerClient: 60,
		Codec:            codec,
		Seed:             42,
		Population:       fedsz.PaperMix(),
	}

	// Synchronous rounds: sample 8 of 24 clients with 1.5×
	// over-provisioning, cut stragglers 30 virtual seconds in.
	sync := base
	sync.ClientsPerRound = 8
	sync.OverProvision = 1.5
	sync.RoundDeadline = 30 * time.Second
	res, err := fedsz.RunSim(sync)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sync rounds (sampled 8/24, deadline 30s):")
	for _, m := range res.Rounds {
		fmt.Printf("  round %d: acc %.3f, %d/%d updates (%d dropped), %.1fs virtual, %.2f MB up\n",
			m.Round, m.TestAccuracy, m.Participants-m.Dropped, m.Participants,
			m.Dropped, m.CommTime.Seconds(), float64(m.BytesUplink)/1e6)
	}

	// 2-tier: the same 24 clients behind 4 regional edge aggregators on
	// fast LAN uplinks; every edge forwards ONE checksummed partial-sum
	// frame over a WAN trunk shared by the 4 forwarding edges. The
	// coordinator folds 4 partials instead of 24 uplinks — and commits
	// the exact same models the flat run would.
	tier := base
	tier.Population = fedsz.EdgeMix()
	tier.Edges = 4
	tier.Wire = fedsz.PartialWireOptions{Checksum: true}
	tier.EdgeLink = fedsz.ContendedWAN(fedsz.Link{BandwidthBps: fedsz.Mbps(500)}, 4)
	res, err = fedsz.RunSim(tier)
	if err != nil {
		log.Fatal(err)
	}
	hs := res.Tier
	fmt.Printf("hierarchical rounds (%d edges, checksummed partials):\n", hs.Edges)
	for _, m := range res.Rounds {
		fmt.Printf("  round %d: acc %.3f, %d updates via %d regions, %.1fs virtual\n",
			m.Round, m.TestAccuracy, m.Participants-m.Dropped, hs.Edges, m.CommTime.Seconds())
	}
	fmt.Println("per-tier bytes on wire:")
	fmt.Printf("  tier 1 client->edge: %.2f MB across %d uplinks\n",
		float64(hs.ClientBytes)/1e6, base.Clients*base.Rounds-hs.ClientDrops)
	fmt.Printf("  tier 2 edge->core:   %.2f MB across %d partial frames (fan-in %d->%d)\n",
		float64(hs.PartialBytes)/1e6, hs.Partials, base.Clients, hs.Edges)
	fmt.Printf("  peak aggregator memory: edge %.1f KB, core %.1f KB\n",
		float64(hs.PeakEdgeMemory)/1e3, float64(hs.PeakCoreMemory)/1e3)
}
