package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fedsz/internal/bitstream"
	"fedsz/internal/core"
	"fedsz/internal/hier"
	"fedsz/internal/huffman"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
	"fedsz/internal/sz2"
	"fedsz/internal/sz3"
)

// layerLoops is the number of measure calls in runLayers; the budget is
// split evenly between them.
const layerLoops = 20

// measure calls fn until per has elapsed, and at least three times. It
// returns the median seconds per call and the mean heap allocations per
// call (all goroutines: the process runs nothing else meanwhile).
func measure(per time.Duration, fn func()) (sec, allocs float64) {
	fn() // pools and lazy tables fill
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	var times []float64
	for begin := time.Now(); len(times) < 3 || time.Since(begin) < per; {
		t := time.Now()
		fn()
		times = append(times, time.Since(t).Seconds())
	}
	runtime.ReadMemStats(&ms)
	return median(times), float64(ms.Mallocs-mallocs0) / float64(len(times))
}

// runLayers is the `layers` pass: each layer's public functions alone,
// on one goroutine's worth of work (core runs at Parallelism 1), over
// the state dict of model.MobileNetV2(1) plus one large flat tensor,
// the first classifier weight of model.AlexNet(4). Rates are MB/s of
// the uncompressed float32 bytes unless the name says otherwise.
func runLayers(seed int64, budget time.Duration) (map[string]float64, error) {
	per := budget / layerLoops
	out := make(map[string]float64)
	mbs := func(n int, sec float64) float64 { return float64(n) / 1e6 / sec }
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	sd := model.BuildStateDict(model.MobileNetV2(1), seed)
	big, ok := model.BuildStateDict(model.AlexNet(4), seed).Get("classifier.1.weight")
	if !ok {
		return nil, fmt.Errorf("layers: alexnet has no classifier.1.weight")
	}
	big.Name = "alexnet." + big.Name
	if err := sd.Add(big); err != nil {
		return nil, err
	}
	rawBytes := int(sd.SizeBytes())

	// The partition core.Pipeline makes (Algorithm 1 line 4).
	var lossyData [][]float32
	lossyBytes := 0
	meta := model.NewStateDict()
	for _, e := range sd.Entries() {
		if e.DType == model.Float32 && e.IsWeightNamed() && e.NumElements() > core.DefaultThreshold {
			lossyData = append(lossyData, e.Tensor.Data())
			lossyBytes += e.SizeBytes()
		} else if err := meta.Add(e); err != nil {
			return nil, err
		}
	}

	// bitstream: 11-bit fields, the width of a typical quantization code.
	const nFields = 4 << 20
	bw := bitstream.NewWriter(nFields * 11 / 8)
	sec, _ := measure(per, func() {
		bw.Reset()
		for i := uint64(0); i < nFields; i++ {
			bw.WriteBits(i, 11)
		}
	})
	packed := bw.Bytes()
	out["bitstream.write_mb_s"] = mbs(len(packed), sec)
	sec, _ = measure(per, func() {
		br := bitstream.NewReader(packed)
		for i := 0; i < nFields; i++ {
			if _, err := br.ReadBits(11); err != nil {
				check(err)
				return
			}
		}
	})
	out["bitstream.read_mb_s"] = mbs(len(packed), sec)

	// huffman: quantization codes, geometric around the centre bin.
	rng := rand.New(rand.NewSource(seed))
	syms := make([]int32, 4<<20)
	for i := range syms {
		k := int32(math.Log(1-rng.Float64()) / math.Log(0.7))
		if rng.Intn(2) == 0 {
			k = -k
		}
		syms[i] = 512 + k
	}
	var coded []byte
	sec, allocs := measure(per, func() {
		var err error
		coded, err = huffman.AppendEncode(coded[:0], syms)
		check(err)
	})
	out["huffman.encode_msym_s"] = mbs(len(syms), sec)
	out["huffman.encode_allocs_op"] = allocs
	decoded := make([]int32, 0, len(syms))
	sec, _ = measure(per, func() {
		d := huffman.AcquireDecoder()
		defer d.Release()
		check(d.Open(coded))
		var err error
		decoded, err = d.DecodeAll(decoded[:0])
		check(err)
	})
	out["huffman.decode_msym_s"] = mbs(len(syms), sec)
	if len(decoded) != len(syms) || decoded[len(decoded)-1] != syms[len(syms)-1] {
		check(fmt.Errorf("layers: huffman round trip lost symbols"))
	}

	// sz2 and sz3 kernels on the lossy-path tensors, one at a time.
	bound := lossy.RelBound(core.DefaultBound)
	for _, k := range []struct {
		name string
		c    lossy.Compressor
	}{{"sz2", sz2.New()}, {"sz3", sz3.New()}} {
		comp := make([][]byte, len(lossyData))
		sec, _ := measure(per, func() {
			for i, data := range lossyData {
				var err error
				comp[i], err = k.c.Compress(data, bound)
				check(err)
			}
		})
		out[k.name+".compress_mb_s"] = mbs(lossyBytes, sec)
		recon := make([][]float32, len(lossyData))
		sec, _ = measure(per, func() {
			for i, buf := range comp {
				var err error
				recon[i], err = k.c.Decompress(buf)
				check(err)
			}
		})
		out[k.name+".decompress_mb_s"] = mbs(lossyBytes, sec)
		compBytes, worst := 0, 0.0
		for i, data := range lossyData {
			compBytes += len(comp[i])
			abs, err := bound.Resolve(data)
			check(err)
			worst = math.Max(worst, lossy.MaxAbsError(data, recon[i])/abs)
		}
		out[k.name+".ratio"] = float64(lossyBytes) / float64(compBytes)
		out[k.name+".max_err_over_bound"] = worst
		if worst > 1+1e-6 { // float32 rounding of the reconstruction, as internal/lossy's own tests allow
			check(fmt.Errorf("layers: %s exceeds its bound by %.3g", k.name, worst))
		}
	}

	// lossless stage on what the pipeline feeds it: the marshalled
	// non-lossy entries.
	metaRaw, err := core.MarshalStateDict(meta)
	if err != nil {
		return nil, err
	}
	blosc, err := lossless.New(lossless.NameBloscLZ)
	if err != nil {
		return nil, err
	}
	var metaComp []byte
	sec, _ = measure(per, func() {
		metaComp, err = blosc.AppendCompress(metaComp[:0], metaRaw)
		check(err)
	})
	out["lossless.blosclz.compress_mb_s"] = mbs(len(metaRaw), sec)
	sec, _ = measure(per, func() {
		_, err := blosc.Decompress(metaComp)
		check(err)
	})
	out["lossless.blosclz.decompress_mb_s"] = mbs(len(metaRaw), sec)

	// core: frame assembly around the kernels, and the raw serialization.
	pipe, err := core.NewPipeline(core.Config{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	var frame bytes.Buffer
	var st core.Stats
	sec, allocs = measure(per, func() {
		frame.Reset()
		st, err = pipe.CompressTo(&frame, sd)
		check(err)
	})
	out["core.compress_to_mb_s"] = mbs(rawBytes, sec)
	out["core.compress_allocs_per_entry"] = allocs / float64(sd.Len())
	out["core.ratio"] = st.Ratio()
	// ROADMAP 3a wants the pipeline within a tenth of the kernel it wraps.
	out["core.pipeline_vs_kernel_frac"] = out["core.compress_to_mb_s"] / out["sz2.compress_mb_s"]
	entries := 0
	sec, allocs = measure(per, func() {
		entries = 0
		check(core.DecompressEntriesFrom(bytes.NewReader(frame.Bytes()), 1, func(model.Entry) error {
			entries++
			return nil
		}))
	})
	out["core.decompress_entries_mb_s"] = mbs(rawBytes, sec)
	out["core.decompress_allocs_per_entry"] = allocs / float64(sd.Len())
	if entries != sd.Len() {
		check(fmt.Errorf("layers: decoded %d of %d entries", entries, sd.Len()))
	}
	sec, _ = measure(per, func() { check(core.MarshalStateDictTo(io.Discard, sd)) })
	out["core.marshal_mb_s"] = mbs(rawBytes, sec)
	plain, err := core.MarshalStateDict(sd)
	if err != nil {
		return nil, err
	}
	sec, _ = measure(per, func() {
		_, err := core.UnmarshalStateDictFrom(bytes.NewReader(plain))
		check(err)
	})
	out["core.unmarshal_mb_s"] = mbs(rawBytes, sec)

	// orchestrator: one contribution folded and committed, then the
	// float64 sums projected back.
	agg := orchestrator.NewAggregator(sd, 0)
	sec, _ = measure(per, func() {
		ct, err := agg.Contributor(100)
		if err != nil {
			check(err)
			return
		}
		for _, e := range sd.Entries() {
			check(ct.Fold(e))
		}
		check(ct.Commit())
	})
	out["orchestrator.fold_mb_s"] = mbs(rawBytes, sec)
	sec, _ = measure(per, func() {
		_, err := agg.Finalize()
		check(err)
	})
	out["orchestrator.finalize_ms"] = sec * 1e3
	out["orchestrator.agg_memory_mb"] = float64(agg.MemoryBytes()) / 1e6

	// hier: the partial-sum frame an edge forwards, checksummed as in hier_lan.
	partial := agg.Partial()
	opts := hier.WireOptions{Checksum: true}
	var pframe bytes.Buffer
	sec, _ = measure(per, func() {
		pframe.Reset()
		check(hier.EncodePartialTo(&pframe, partial, opts))
	})
	out["hier.encode_partial_mb_s"] = mbs(pframe.Len(), sec)
	sec, _ = measure(per, func() {
		_, err := hier.DecodePartialFrom(bytes.NewReader(pframe.Bytes()))
		check(err)
	})
	out["hier.decode_partial_mb_s"] = mbs(pframe.Len(), sec)

	return out, failed
}

// median returns the middle of xs, 0 for none.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
