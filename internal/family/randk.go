package family

import (
	"fmt"

	"fedsz/internal/lossy"
	"fedsz/internal/stats"
)

// NameRandK is the registry name of the random-sparsification family.
const NameRandK = "randk"

const randkMagic = "FRK1"

// The registered randk keeps a tenth of each tensor. It is not error
// bounded: a dropped value's error is the value itself.
func init() {
	lossy.MustRegisterFamily(lossy.Family{Name: NameRandK, New: func() lossy.Compressor { return randK{fraction: 0.1} }})
}

// RandK returns random-k sparsification: each value survives with
// probability fraction, independently of its magnitude, so it is
// unbounded and its frames never carry a global model. Selection is
// drawn from a deterministic seed (the tensor length), so encoding is
// reproducible and frames stay byte-identical across runs; kept values
// travel unscaled (the 1/f unbiasing of the RandK literature amplifies
// the noise of the dropped values). Its payloads decode through the
// registered randk. fraction must lie in
// (0, 1).
func RandK(fraction float64) (lossy.Compressor, error) {
	if !(fraction > 0 && fraction < 1) {
		return nil, fmt.Errorf("family: randk fraction %g outside (0, 1)", fraction)
	}
	return randK{fraction: fraction}, nil
}

// randK is one randk configuration.
type randK struct {
	fraction float64
}

// Name implements lossy.Compressor.
func (randK) Name() string { return NameRandK }

// Compress implements lossy.Compressor.
func (r randK) Compress(data []float32, p lossy.Params) ([]byte, error) {
	eb, err := p.Resolve(data)
	if err != nil {
		return nil, fmt.Errorf("randk: %w", err)
	}
	rng := stats.NewRNG(int64(len(data)))
	var idx []int
	var vals []float32
	for i, v := range data {
		if rng.Float64() < r.fraction {
			idx = append(idx, i)
			vals = append(vals, v)
		}
	}
	out := make([]byte, 0, lossy.MaxHeaderLen+5+len(idx)*9)
	out = lossy.AppendHeader(out, randkMagic, len(data), eb)
	return appendSparse(out, idx, vals), nil
}

// Decompress implements lossy.Compressor.
func (randK) Decompress(buf []byte) ([]float32, error) {
	count, _, rest, err := lossy.ReadHeader(randkMagic, buf)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	return decodeSparse("randk", count, rest)
}
