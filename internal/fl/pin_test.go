package fl

import (
	"fmt"
	"math"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/lossy"
	"fedsz/internal/netsim"
	"fedsz/internal/orchestrator"
)

// pinnedRound is one round of a pinned RunSim trace: the accuracy's
// bit pattern and the byte accounting.
type pinnedRound struct {
	acc            uint64
	uplink, origin int64
}

// TestRunSimPinned pins RunSim's per-round accuracy bits and byte
// totals for plain and fedsz-sz2 uplinks in flat sync, two-edge and
// async shapes, so a change to how the simulator encodes an upload
// cannot move a single bit of the trajectory or the accounting.
func TestRunSimPinned(t *testing.T) {
	want := map[string][]pinnedRound{
		"plain/flat":       {{0x3fc3333333333333, 2822181, 2822181}, {0x3fc6666666666666, 2822181, 2822181}},
		"plain/edges2":     {{0x3fc3333333333333, 2822181, 2822181}, {0x3fc6666666666666, 2822181, 2822181}},
		"plain/async":      {{0x3fc0000000000000, 1881454, 1881454}, {0x3fc0000000000000, 1881454, 1881454}, {0x3fc6666666666666, 1881454, 1881454}},
		"fedsz-sz2/flat":   {{0x3fb999999999999a, 419894, 2821752}, {0x3fc0000000000000, 419891, 2821752}},
		"fedsz-sz2/edges2": {{0x3fb999999999999a, 419894, 2821752}, {0x3fc0000000000000, 419891, 2821752}},
		"fedsz-sz2/async":  {{0x3fb3333333333333, 279925, 1881168}, {0x3fc3333333333333, 279940, 1881168}, {0x3fb3333333333333, 279949, 1881168}},
	}
	for _, codec := range []string{"plain", "fedsz-sz2"} {
		for _, shape := range []string{"flat", "edges2", "async"} {
			name := codec + "/" + shape
			t.Run(name, func(t *testing.T) {
				cfg := SimConfig{
					Dataset:          dataset.FashionMNIST(),
					Clients:          3,
					Rounds:           2,
					SamplesPerClient: 20,
					TestSamples:      40,
					Codec:            PlainCodec{},
					Link:             netsim.Link{BandwidthBps: netsim.Mbps(100)},
					Seed:             3,
				}
				if codec == "fedsz-sz2" {
					c, err := NewFedSZCodec(core.Config{Lossy: core.LossySZ2, Bound: lossy.RelBound(1e-2)})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Codec = c
				}
				switch shape {
				case "edges2":
					cfg = tiered(cfg, 2)
				case "async":
					cfg.Mode = orchestrator.ModeAsync
					cfg.BufferSize = 2
					cfg.Rounds = 3
				}
				res, err := RunSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]pinnedRound, len(res.Rounds))
				for i, m := range res.Rounds {
					got[i] = pinnedRound{math.Float64bits(m.TestAccuracy), m.BytesUplink, m.OriginalBytes}
				}
				if fmt.Sprint(got) != fmt.Sprint(want[name]) {
					t.Fatalf("trace moved:\n got %v\nwant %v", got, want[name])
				}
			})
		}
	}
}
