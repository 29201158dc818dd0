package main

import (
	"fmt"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/privacy"
	"fedsz/internal/scidata"
	"fedsz/internal/stats"
)

// Fig2 reproduces the Fig. 2 characterization: FL model-parameter
// snippets are spiky while scientific-simulation slices are smooth,
// quantified by the normalized first-difference roughness metric.
func Fig2(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "fig2",
		Title:  "FL parameters vs. scientific data: 1-D smoothness",
		Header: []string{"Series", "Samples", "Range", "Roughness"},
		Notes:  []string{"roughness = mean |Δx| / range; smooth fields score near zero"},
	}
	sd := model.BuildStateDict(model.AlexNet(opts.Scale), opts.Seed)
	flat := sd.FlatWeights()
	snip := func(name string, lo int) {
		hi := lo + 500
		if hi > len(flat) {
			hi = len(flat)
		}
		xs := toF64(flat[lo:hi])
		s := stats.Summarize(xs)
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", len(xs)), f3(s.Range), f4(stats.Roughness(xs)),
		})
	}
	n := len(flat)
	snip("params[501:1000]", 501)
	snip(fmt.Sprintf("params[%d:+500]", n/10), n/10)
	snip(fmt.Sprintf("params[%d:+500]", n/3), n/3)
	snip(fmt.Sprintf("params[%d:+500]", 9*n/10), 9*n/10)

	for _, f := range []scidata.Field{scidata.Density(), scidata.VelocityY()} {
		for _, slice := range []int{1, 100} {
			xs := toF64(f.Slice(400, slice))
			s := stats.Summarize(xs)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s(slice %d)", f.Name, slice),
				"400", f3(s.Range), f4(stats.Roughness(xs)),
			})
		}
	}
	return t, nil
}

// Fig3 reproduces the Fig. 3 weight-distribution profiles of the three
// pretrained models.
func Fig3(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "fig3",
		Title:  "Pretrained weight distributions",
		Header: []string{"Model", "Std", "Range", "Within±0.05"},
	}
	for _, arch := range model.Architectures(opts.Scale) {
		sd := model.BuildStateDict(arch, opts.Seed)
		s, frac := summarizeWeights(sd.FlatWeights())
		t.Rows = append(t.Rows, []string{arch.Name, f4(s.Std), f3(s.Range), pct(frac)})
	}
	return t, nil
}

// fig4Codecs lists the convergence-comparison codecs of Fig. 4.
func fig4Codecs(quick bool) []string {
	if quick {
		return []string{"", core.LossySZ2}
	}
	return []string{"", core.LossySZ2, core.LossySZ3, core.LossyZFP, core.LossySZxArtifact}
}

// Fig4 reproduces Fig. 4: accuracy convergence per communication round
// for each compressor at REL 1e-2 ("" = uncompressed).
func Fig4(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	rounds := 10
	if opts.Quick {
		rounds = 3
	}
	codecs := fig4Codecs(opts.Quick)
	header := []string{"Round"}
	traces := make([][]float64, 0, len(codecs))
	for _, name := range codecs {
		label := "uncompressed"
		if name != "" {
			label = "fedsz-" + name
		}
		if name == core.LossySZxArtifact {
			label = "fedsz-szx*"
		}
		header = append(header, label)
		res, err := runConvergence(name, rounds, opts)
		if err != nil {
			return nil, err
		}
		trace := make([]float64, rounds)
		for i, m := range res.Rounds {
			trace[i] = m.TestAccuracy
		}
		traces = append(traces, trace)
	}
	t := &Table{
		ID:     "fig4",
		Title:  "Accuracy convergence per compressor (AlexNet-mini, CIFAR-10-like, REL 1e-2)",
		Header: header,
		Notes:  []string{"szx* (paper-artifact mode) collapses toward chance, as in the paper's Fig. 4"},
	}
	for r := 0; r < rounds; r++ {
		row := []string{fmt.Sprintf("%d", r)}
		for _, trace := range traces {
			row = append(row, f3(trace[r]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runConvergence(compressor string, rounds int, opts Options) (*fl.SimResult, error) {
	var codec fl.Codec = fl.PlainCodec{}
	if compressor != "" {
		c, err := fl.NewFedSZCodec(core.Config{Lossy: compressor, Bound: lossy.RelBound(1e-2)})
		if err != nil {
			return nil, err
		}
		codec = c
	}
	cfg := fl.SimConfig{
		Dataset:          dataset.CIFAR10(),
		Rounds:           rounds,
		SamplesPerClient: 100,
		Codec:            codec,
		Seed:             opts.Seed,
	}
	if opts.Quick {
		cfg.Dataset = dataset.FashionMNIST()
		quickTrimCounts(&cfg)
	}
	return fl.RunSim(cfg)
}

// fig5Bounds is the Fig. 5 sweep.
var fig5Bounds = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// Fig5 reproduces Fig. 5: final inference accuracy across models,
// datasets and relative error bounds, with the uncompressed reference.
// The paper's cliff between 1e-2 and 1e-1 should be visible in the last
// column.
func Fig5(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	bounds := fig5Bounds
	models := []string{"resnet50", "mobilenetv2", "alexnet"}
	specs := dataset.Specs()
	rounds := 10
	if opts.Quick {
		bounds = []float64{1e-3, 1e-1}
		models = models[2:]
		specs = []dataset.Spec{dataset.FashionMNIST()}
		rounds = 3
	}
	header := []string{"Model", "Dataset", "uncomp"}
	for _, b := range bounds {
		header = append(header, fmt.Sprintf("%.0e", b))
	}
	t := &Table{
		ID:     "fig5",
		Title:  "Final accuracy vs. REL error bound",
		Header: header,
		Notes:  []string{"expected shape: flat for bounds ≤1e-2, collapse at 1e-1 (paper Fig. 5)"},
	}
	for _, m := range models {
		for _, spec := range specs {
			row := []string{m, spec.Name}
			base, err := runFig5Sim(m, spec, "", 0, rounds, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, f3(base))
			for _, b := range bounds {
				acc, err := runFig5Sim(m, spec, core.LossySZ2, b, rounds, opts)
				if err != nil {
					return nil, err
				}
				row = append(row, f3(acc))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func runFig5Sim(modelName string, spec dataset.Spec, compressor string, bound float64, rounds int, opts Options) (float64, error) {
	var codec fl.Codec = fl.PlainCodec{}
	if compressor != "" {
		c, err := fl.NewFedSZCodec(core.Config{Lossy: compressor, Bound: lossy.RelBound(bound)})
		if err != nil {
			return 0, err
		}
		codec = c
	}
	cfg := fl.SimConfig{
		Model:            modelName,
		Dataset:          spec,
		Rounds:           rounds,
		SamplesPerClient: 100,
		Codec:            codec,
		Seed:             opts.Seed,
	}
	if spec.Classes > 50 {
		cfg.SamplesPerClient = 202 // two samples per class for caltech-like
		cfg.TestSamples = 303
	}
	if opts.Quick {
		quickTrimCounts(&cfg)
	}
	res, err := fl.RunSim(cfg)
	if err != nil {
		return 0, err
	}
	return res.FinalAccuracy(), nil
}

// Fig6 reproduces Fig. 6: the per-epoch client time breakdown —
// training, validation and FedSZ compression — showing the compression
// overhead stays a small fraction of the round (paper: <4.7% mean).
func Fig6(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "fig6",
		Title:  "Client epoch time breakdown with FedSZ-SZ2 @ REL 1e-2",
		Header: []string{"Model", "Dataset", "Train", "Validate", "Compress", "Overhead"},
	}
	models := []string{"resnet50", "mobilenetv2", "alexnet"}
	specs := dataset.Specs()
	if opts.Quick {
		models = models[2:]
		specs = specs[:1]
	}
	for _, m := range models {
		for _, spec := range specs {
			codec, err := fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-2)})
			if err != nil {
				return nil, err
			}
			cfg := fl.SimConfig{
				Model:   m,
				Dataset: spec,
				Rounds:  2,
				Codec:   codec,
				Seed:    opts.Seed,
			}
			if opts.Quick {
				quickTrimCounts(&cfg)
			}
			res, err := fl.RunSim(cfg)
			if err != nil {
				return nil, err
			}
			last := res.Rounds[len(res.Rounds)-1]
			comp := last.EncodeTime + last.DecodeTime
			total := last.TrainTime + last.ValidationTime + comp
			t.Rows = append(t.Rows, []string{
				m, spec.Name,
				secs(last.TrainTime.Seconds()),
				secs(last.ValidationTime.Seconds()),
				secs(comp.Seconds()),
				pct(comp.Seconds() / total.Seconds()),
			})
		}
	}
	return t, nil
}

// fig7Bounds is the Fig. 7 sweep.
var fig7Bounds = []float64{1e-5, 1e-4, 1e-3, 1e-2}

// Fig7 reproduces Fig. 7: total communication time (compression +
// transfer + decompression) for a client update on a 10 Mbps link
// across error bounds, against the uncompressed transfer.
func Fig7(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	link := netsim.Link{BandwidthBps: netsim.Mbps(10)}
	bounds := fig7Bounds
	if opts.Quick {
		bounds = []float64{1e-2}
	}
	t := &Table{
		ID:     "fig7",
		Title:  "Communication time on a 10 Mbps link vs. REL bound",
		Header: []string{"Model", "Bound", "FedSZ", "Uncompressed", "Speedup"},
	}
	for _, arch := range model.Architectures(opts.Scale) {
		sd := model.BuildStateDict(arch, opts.Seed)
		for _, b := range bounds {
			d, err := commTimeFor(sd, core.Config{Bound: lossy.RelBound(b)}, link)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s: %w", arch.Name, err)
			}
			comp := d.CompressedPathTime()
			uncomp := d.UncompressedPathTime()
			t.Rows = append(t.Rows, []string{
				arch.Name, fmt.Sprintf("%.0e", b),
				secs(comp.Seconds()), secs(uncomp.Seconds()),
				f2(uncomp.Seconds() / comp.Seconds()),
			})
		}
	}
	return t, nil
}

// fig8Bandwidths is the Fig. 8 sweep in Mbps.
var fig8Bandwidths = []float64{1, 10, 100, 500, 1000, 10000}

// Fig8 reproduces Fig. 8: end-to-end transfer time of an AlexNet update
// across bandwidths per compressor, locating the crossover where raw
// transfer beats compress-then-send (paper: ≈500 Mbps).
func Fig8(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	sd := model.BuildStateDict(model.AlexNet(opts.Scale), opts.Seed)
	compressors := []string{core.LossySZ2, core.LossySZ3, core.LossyZFP}
	bandwidths := fig8Bandwidths
	if opts.Quick {
		compressors = compressors[:1]
		bandwidths = []float64{10, 10000}
	}
	header := []string{"Compressor"}
	for _, bw := range bandwidths {
		header = append(header, fmt.Sprintf("%gMbps", bw))
	}
	header = append(header, "Crossover")
	t := &Table{
		ID:     "fig8",
		Title:  "Communication time vs. bandwidth (AlexNet update)",
		Header: header,
		Notes:  []string{"crossover = bandwidth above which sending raw data is faster (Eqn. 1)"},
	}

	var origRow []string
	for _, name := range compressors {
		d, err := commTimeFor(sd, core.Config{Lossy: name, Bound: lossy.RelBound(1e-2)},
			netsim.Link{})
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", name, err)
		}
		row := []string{name}
		if origRow == nil {
			origRow = []string{"original"}
		}
		for _, bw := range bandwidths {
			d.BandwidthBps = netsim.Mbps(bw)
			row = append(row, secs(d.CompressedPathTime().Seconds()))
			if len(origRow) < len(bandwidths)+1 {
				origRow = append(origRow, secs(d.UncompressedPathTime().Seconds()))
			}
		}
		row = append(row, fmt.Sprintf("%.0fMbps", d.CrossoverBandwidthBps()/1e6))
		t.Rows = append(t.Rows, row)
	}
	origRow = append(origRow, "-")
	t.Rows = append(t.Rows, origRow)
	return t, nil
}

// fig9Workers is the Fig. 9 core sweep.
var fig9Workers = []int{2, 4, 8, 16, 32, 64, 128}

// Fig9 reproduces Fig. 9: weak and strong scaling of federated training
// at 10 Mbps with and without FedSZ. Per-client compute and update
// sizes are measured from a real mini-model round; the multi-worker
// timeline is modeled analytically (the paper's own numbers come from
// sleep-based emulation).
func Fig9(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	workers := fig9Workers
	if opts.Quick {
		workers = []int{2, 8}
	}
	link := netsim.Link{BandwidthBps: netsim.Mbps(10)}

	measure := func(codec fl.Codec) (time.Duration, int64, error) {
		cfg := fl.SimConfig{
			Model:   "mobilenetv2",
			Dataset: dataset.CIFAR10(),
			Rounds:  1,
			Codec:   codec,
			Seed:    opts.Seed,
		}
		if opts.Quick {
			quickTrimCounts(&cfg)
		}
		res, err := fl.RunSim(cfg)
		if err != nil {
			return 0, 0, err
		}
		m := res.Rounds[0]
		compute := m.TrainTime + m.EncodeTime
		bytesPer := m.BytesUplink / int64(res.Config.Clients)
		return compute, bytesPer, nil
	}

	codec, err := fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-2)})
	if err != nil {
		return nil, err
	}
	fszCompute, fszBytes, err := measure(codec)
	if err != nil {
		return nil, err
	}
	plainCompute, plainBytes, err := measure(fl.PlainCodec{})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "fig9",
		Title:  "Weak/strong scaling at 10 Mbps (MobileNetV2-mini, CIFAR-10-like)",
		Header: []string{"Mode", "Workers", "FedSZ", "Uncompressed"},
	}
	weakF := fl.SimulateWeakScaling(workers, fszCompute, fszBytes, link)
	weakP := fl.SimulateWeakScaling(workers, plainCompute, plainBytes, link)
	for i, w := range workers {
		t.Rows = append(t.Rows, []string{
			"weak", fmt.Sprintf("%d", w),
			secs(weakF[i].EpochTimePerClient.Seconds()),
			secs(weakP[i].EpochTimePerClient.Seconds()),
		})
	}
	strongF := fl.SimulateStrongScaling(workers, 127, fszCompute, fszBytes, link)
	strongP := fl.SimulateStrongScaling(workers, 127, plainCompute, plainBytes, link)
	for i, w := range workers {
		t.Rows = append(t.Rows, []string{
			"strong", fmt.Sprintf("%d", w),
			secs(strongF[i].EpochTimePerClient.Seconds()),
			secs(strongP[i].EpochTimePerClient.Seconds()),
		})
	}
	return t, nil
}

// fig10Bounds is the Fig. 10 sweep.
var fig10Bounds = []float64{0.5, 0.1, 0.05}

// Fig10 reproduces Fig. 10: the distribution of FedSZ decompression
// residuals, with Laplace/Gaussian fits and KS goodness-of-fit — the
// paper's differential-privacy observation.
func Fig10(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	sd := model.BuildStateDict(model.AlexNet(opts.Scale*2), opts.Seed)
	bounds := fig10Bounds
	if opts.Quick {
		bounds = bounds[1:2]
	}
	t := &Table{
		ID:     "fig10",
		Title:  "FedSZ error distribution vs. Laplace (DP potential)",
		Header: []string{"Bound", "LaplaceB", "KS-Laplace", "KS-Gaussian", "Preferred"},
	}
	for _, b := range bounds {
		p, err := core.NewPipeline(core.Config{Bound: lossy.RelBound(b)})
		if err != nil {
			return nil, err
		}
		buf, _, err := p.Compress(sd)
		if err != nil {
			return nil, err
		}
		recon, err := core.Decompress(buf)
		if err != nil {
			return nil, err
		}
		res, err := privacy.Residuals(sd.FlatWeights(), recon.FlatWeights())
		if err != nil {
			return nil, err
		}
		a, err := privacy.Analyze(res, 60)
		if err != nil {
			return nil, err
		}
		preferred := "gaussian"
		if a.LaplacePreferred() {
			preferred = "laplace"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", b), f4(a.Laplace.B), f4(a.KSLaplace), f4(a.KSGaussian), preferred,
		})
	}
	return t, nil
}

func toF64(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
