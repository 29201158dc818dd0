// Federated: run FedAvg over four clients on a synthetic CIFAR-10-like
// task, once with uncompressed updates and once with FedSZ, and compare
// accuracy and communication cost per round — the paper's central
// experiment in miniature (Fig. 4 + Fig. 7).
//
//	go run ./examples/federated
package main

import (
	"fmt"
	"log"

	"fedsz"
)

func main() {
	link := fedsz.Link{BandwidthBps: fedsz.Mbps(10)} // constrained WAN

	// The four uploads share one serial ingest link, as in the paper's
	// MPI emulation (§VI-C), so each round's comm time is the modelled
	// train time plus every update's transfer back to back.
	base := fedsz.SimConfig{
		Clients:          4,
		Rounds:           8,
		SamplesPerClient: 100,
		Link:             fedsz.ContendedWAN(link, 4),
		Seed:             42,
	}

	fmt.Println("running uncompressed baseline...")
	plainCfg := base
	plainCfg.Codec = fedsz.PlainCodec{}
	plain, err := fedsz.RunSim(plainCfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running FedSZ (SZ2 @ REL 1e-2)...")
	codec, err := fedsz.NewCodec(fedsz.WithRelBound(1e-2))
	if err != nil {
		log.Fatal(err)
	}
	fszCfg := base
	fszCfg.Codec = codec
	fsz, err := fedsz.RunSim(fszCfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nround  uncomp-acc  fedsz-acc  uncomp-comm  fedsz-comm  uplink-ratio")
	for i := range plain.Rounds {
		p, f := plain.Rounds[i], fsz.Rounds[i]
		fmt.Printf("%5d  %10.3f  %9.3f  %11s  %10s  %11.2fx\n",
			i, p.TestAccuracy, f.TestAccuracy,
			p.CommTime.Round(1e7), f.CommTime.Round(1e7),
			float64(p.BytesUplink)/float64(f.BytesUplink))
	}
	fmt.Printf("\ntotal simulated comm: uncompressed %v vs FedSZ %v (%.1fx less time on the wire)\n",
		plain.TotalCommTime().Round(1e7), fsz.TotalCommTime().Round(1e7),
		float64(plain.TotalCommTime())/float64(fsz.TotalCommTime()))
	fmt.Printf("final accuracy: uncompressed %.3f, FedSZ %.3f\n",
		plain.FinalAccuracy(), fsz.FinalAccuracy())

	// The streaming uplink (Encoder / Codec.EncodeTo, what the TCP
	// transport uses) goes further: each tensor's frame section hits
	// the wire while the next is still compressing, so the client's
	// upload takes max(tC, tT) instead of tC + tT. Quantify Eqn. 1
	// under both transfer models for one update on this link.
	sd := fedsz.BuildStateDict(fedsz.MobileNetV2(4), 42)
	_, stats, err := fedsz.Compress(sd, fedsz.WithRelBound(1e-2))
	if err != nil {
		log.Fatal(err)
	}
	d := fedsz.Decision{
		CompressTime:    stats.CompressTime,
		OriginalBytes:   stats.OriginalBytes,
		CompressedBytes: stats.CompressedBytes,
		BandwidthBps:    link.BandwidthBps,
	}
	sections := stats.NumLossyTensors + 1 // one frame section per tensor + metadata
	fmt.Printf("\nper-update upload @ 10 Mbps: whole-buffer %v, pipelined (%d sections) %v, raw %v\n",
		d.CompressedPathTime().Round(1e6), sections,
		d.PipelinedTime(sections).Round(1e6),
		d.UncompressedPathTime().Round(1e6))
}
