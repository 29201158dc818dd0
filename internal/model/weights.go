package model

import (
	"hash/fnv"
	"math"

	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// BuildStateDict materializes an architecture into a state dict with
// "pretrained-like" values: fan-in-scaled Gaussian conv/fc weights with
// a heavy-tailed spike component (reproducing the irregular 1-D
// parameter streams of paper Fig. 2a and the clustered-around-zero
// distributions of Fig. 3), BatchNorm affine parameters near identity
// and plausible running statistics.
//
// Values are deterministic: each entry derives its RNG stream from the
// given seed and the entry name, so dictionaries are reproducible
// regardless of build order.
func BuildStateDict(a Arch, seed int64) *StateDict {
	sd := NewStateDict()
	for _, ae := range a.Entries {
		e := buildEntry(ae, seed)
		if err := sd.Add(e); err != nil {
			panic(err) // arch specs are duplicate-free by construction
		}
	}
	return sd
}

func buildEntry(ae ArchEntry, seed int64) Entry {
	rng := stats.NewRNG(seed ^ nameSeed(ae.Name))
	if ae.Kind == KindBNCount {
		ints := make([]int64, ae.NumElements())
		for i := range ints {
			ints[i] = 1000
		}
		return Entry{Name: ae.Name, DType: Int64, Ints: ints}
	}

	t := tensor.New(ae.Shape...)
	data := t.Data()
	switch ae.Kind {
	case KindConvWeight, KindFCWeight:
		fanIn := 1
		for _, d := range ae.Shape[1:] {
			fanIn *= d
		}
		sigma := math.Sqrt(2 / float64(fanIn))
		// Pretrained conv/fc weights are leptokurtic — much closer to a
		// Laplace than a Gaussian (visible in paper Fig. 3's sharp
		// peaks); b = σ/√2 matches the Gaussian's variance.
		b := sigma / math.Sqrt2
		for i := range data {
			v := stats.SampleLaplace(rng, 0, b)
			if rng.Float64() < 0.01 {
				v = stats.SampleLaplace(rng, 0, sigma*4) // heavy-tail spikes
			}
			data[i] = float32(v)
		}
	case KindBias:
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 0.01)
		}
	case KindBNWeight:
		for i := range data {
			data[i] = float32(1 + float64(rng.NormFloat64()*0.15))
		}
	case KindBNBias:
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 0.08)
		}
	case KindBNMean:
		for i := range data {
			data[i] = float32(rng.NormFloat64() * 0.2)
		}
	case KindBNVar:
		for i := range data {
			data[i] = float32(math.Abs(1+float64(rng.NormFloat64()*0.3)) + 0.01)
		}
	}
	return Entry{Name: ae.Name, DType: Float32, Tensor: t}
}

func nameSeed(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64())
}
