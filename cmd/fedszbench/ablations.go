package main

import (
	"bytes"
	"fmt"

	"fedsz/internal/core"
	"fedsz/internal/family"
	"fedsz/internal/fl"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/sz2"
	"fedsz/internal/sz3"
)

// Ablations exercises the pipeline's design choices: SZ2's hybrid
// predictor, SZ3's cubic interpolation, the lossless stage inside the
// EBLCs, the partition threshold, per-tensor vs global bounds, and the
// §VIII "last-step" composition with the topk / qsgd families.
func Ablations(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:     "ablations",
		Title:  "Design-choice ablations (bytes lower = better; REL 1e-2)",
		Header: []string{"Ablation", "Variant", "Bytes", "vs.Default"},
	}
	sd := model.BuildStateDict(model.MobileNetV2(opts.Scale), opts.Seed)
	flat := sd.FlatWeights()
	p := lossy.RelBound(1e-2)

	addPair := func(name, baseLabel string, base int, variants map[string]int) {
		t.Rows = append(t.Rows, []string{name, baseLabel + " (default)", fmt.Sprintf("%d", base), "1.00"})
		for label, v := range variants {
			t.Rows = append(t.Rows, []string{name, label, fmt.Sprintf("%d", v),
				f2(float64(v) / float64(base))})
		}
	}

	// 1. SZ2 predictor: hybrid vs Lorenzo-only.
	hybrid, err := sz2.New().Compress(flat, p)
	if err != nil {
		return nil, err
	}
	lorenzo, err := sz2.New(sz2.WithoutRegression()).Compress(flat, p)
	if err != nil {
		return nil, err
	}
	addPair("sz2-predictor", "hybrid", len(hybrid), map[string]int{"lorenzo-only": len(lorenzo)})

	// 2. SZ3 interpolation: cubic vs linear.
	cubic, err := sz3.New().Compress(flat, p)
	if err != nil {
		return nil, err
	}
	linear, err := sz3.New(sz3.WithLinearOnly()).Compress(flat, p)
	if err != nil {
		return nil, err
	}
	addPair("sz3-interp", "cubic", len(cubic), map[string]int{"linear-only": len(linear)})

	// 3. SZ2 lossless backend: zstd-like vs none.
	noStage, err := sz2.New(sz2.WithLosslessStage(nil)).Compress(flat, p)
	if err != nil {
		return nil, err
	}
	addPair("sz2-lossless-stage", "zstdlike", len(hybrid), map[string]int{"disabled": len(noStage)})

	// 4. Partition threshold sweep.
	base := 0
	variants := make(map[string]int)
	for _, thr := range []int{100, core.DefaultThreshold, 100000} {
		pl, err := core.NewPipeline(core.Config{Threshold: thr})
		if err != nil {
			return nil, err
		}
		buf, _, err := pl.Compress(sd)
		if err != nil {
			return nil, err
		}
		if thr == core.DefaultThreshold {
			base = len(buf)
		} else {
			variants[fmt.Sprintf("threshold=%d", thr)] = len(buf)
		}
	}
	addPair("partition-threshold", fmt.Sprintf("threshold=%d", core.DefaultThreshold), base, variants)

	// 5. Per-tensor vs global REL bound: the pipeline applies the bound
	// per tensor (Algorithm 1); the global variant compresses the
	// concatenated weights once.
	global, err := sz2.New().Compress(flat, p)
	if err != nil {
		return nil, err
	}
	perTensor := 0
	for _, e := range sd.Entries() {
		if e.DType != model.Float32 || !e.IsWeightNamed() || e.NumElements() <= core.DefaultThreshold {
			continue
		}
		buf, err := sz2.New().Compress(e.Tensor.Data(), p)
		if err != nil {
			return nil, err
		}
		perTensor += len(buf)
	}
	addPair("bound-scope", "per-tensor", perTensor, map[string]int{"global": len(global)})

	// 6. Last-step composition (§VIII): top-k alone, and top-k or
	// QSGD composed with FedSZ. "X→fedsz-sz2" reconstructs every
	// lossy-path tensor through family X, then FedSZ encodes the result.
	fedszCodec, err := fl.NewFedSZCodec(core.Config{Bound: p})
	if err != nil {
		return nil, err
	}
	topkCodec, err := fl.NewFedSZCodec(core.Config{Bound: p, Lossy: topkFrac10})
	if err != nil {
		return nil, err
	}
	fedszOnly, err := encodedSize(fedszCodec, sd)
	if err != nil {
		return nil, err
	}
	stackVariants := make(map[string]int)
	for label, c := range map[string]fl.Codec{"plain": fl.PlainCodec{}, topkFrac10: topkCodec} {
		if stackVariants[label], err = encodedSize(c, sd); err != nil {
			return nil, err
		}
	}
	topk10, err := lossy.New(topkFrac10)
	if err != nil {
		return nil, err
	}
	qsgd8, err := family.QSGD(8)
	if err != nil {
		return nil, err
	}
	for _, first := range []struct {
		label string
		comp  lossy.Compressor
	}{
		{topkFrac10, topk10},
		{"qsgd:bits=8", qsgd8},
	} {
		recon, err := reconstructThrough(sd, first.comp, p)
		if err != nil {
			return nil, err
		}
		label := first.label + "→" + fedszCodec.Name()
		if stackVariants[label], err = encodedSize(fedszCodec, recon); err != nil {
			return nil, err
		}
	}
	addPair("last-step-composition", fedszCodec.Name(), fedszOnly, stackVariants)

	// 7. Metadata codec choice inside the pipeline.
	blosc := 0
	llVariants := make(map[string]int)
	for _, name := range lossless.Names() {
		pl, err := core.NewPipeline(core.Config{Lossless: name})
		if err != nil {
			return nil, err
		}
		buf, _, err := pl.Compress(sd)
		if err != nil {
			return nil, err
		}
		if name == lossless.NameBloscLZ {
			blosc = len(buf)
		} else {
			llVariants["lossless="+name] = len(buf)
		}
	}
	addPair("metadata-codec", "lossless=blosclz", blosc, llVariants)

	return t, nil
}

// topkFrac10 names a variant family that encodes at top-k's fraction
// 0.1, so the last-step ablation's "top-k alone" row is a static FedSZ
// pipeline over it. Its payloads decode through top-k's own decoder.
const topkFrac10 = "topk:frac=0.1"

func init() {
	c, err := family.TopK(0.1)
	if err != nil {
		panic(err)
	}
	lossy.MustRegisterFamilyVariant(lossy.Family{Name: topkFrac10, New: func() lossy.Compressor { return c }})
}

// reconstructThrough returns sd with every tensor on FedSZ's lossy
// path replaced by its reconstruction through c at bound p.
func reconstructThrough(sd *model.StateDict, c lossy.Compressor, p lossy.Params) (*model.StateDict, error) {
	out := sd.Clone()
	for _, e := range out.Entries() {
		if e.DType != model.Float32 || !e.IsWeightNamed() || e.NumElements() <= core.DefaultThreshold {
			continue
		}
		buf, err := c.Compress(e.Tensor.Data(), p)
		if err != nil {
			return nil, err
		}
		dec, err := c.Decompress(buf)
		if err != nil {
			return nil, err
		}
		copy(e.Tensor.Data(), dec)
	}
	return out, nil
}

// encodedSize is the number of bytes c puts on the wire for sd.
func encodedSize(c fl.Codec, sd *model.StateDict) (int, error) {
	var buf bytes.Buffer
	if _, err := c.EncodeTo(&buf, sd); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}
