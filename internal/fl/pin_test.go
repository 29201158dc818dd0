package fl

import (
	"fmt"
	"math"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/lossy"
	"fedsz/internal/netsim"
)

// pinnedRound is one round of a pinned RunSim trace: the accuracy's
// bit pattern and the byte accounting.
type pinnedRound struct {
	acc            uint64
	uplink, origin int64
}

// TestRunSimPinned pins RunSim's per-round accuracy bits and byte
// totals for plain and fedsz-sz2 uplinks in flat and two-edge shapes,
// so a change to how the simulator encodes an upload
// cannot move a single bit of the trajectory or the accounting.
func TestRunSimPinned(t *testing.T) {
	want := map[string][]pinnedRound{
		"plain/flat":       {{0x3fc3333333333333, 2822181, 2822181}, {0x3fc6666666666666, 2822181, 2822181}},
		"plain/edges2":     {{0x3fc3333333333333, 2822181, 2822181}, {0x3fc6666666666666, 2822181, 2822181}},
		"fedsz-sz2/flat":   {{0x3fb999999999999a, 419894, 2821752}, {0x3fc0000000000000, 419891, 2821752}},
		"fedsz-sz2/edges2": {{0x3fb999999999999a, 419894, 2821752}, {0x3fc0000000000000, 419891, 2821752}},
	}
	for _, codec := range []string{"plain", "fedsz-sz2"} {
		for _, shape := range []string{"flat", "edges2"} {
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
				if shape == "edges2" {
					cfg = tiered(cfg, 2)
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
