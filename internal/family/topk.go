package family

import (
	"fmt"
	"math"
	"sort"

	"fedsz/internal/lossy"
)

// NameTopK is the registry name of the magnitude-sparsification
// family.
const NameTopK = "topk"

const topkMagic = "FTK1"

// The registered topk is *threshold* sparsification at the resolved
// absolute bound: every value with |v| ≤ ε is dropped, so the
// reconstruction error is bounded by ε — on near-sparse tensors it
// beats the EBLC families outright.
func init() {
	lossy.MustRegisterFamily(lossy.Family{Name: NameTopK, Bounded: true, New: func() lossy.Compressor { return topK{} }})
}

// TopK returns classic top-k sparsification: keep the largest
// k = ⌈fraction·n⌉ magnitudes of each tensor. It is unbounded, so its
// frames never carry a global model. Its payloads decode through the
// registered topk. fraction must lie in (0, 1).
func TopK(fraction float64) (lossy.Compressor, error) {
	if !(fraction > 0 && fraction < 1) {
		return nil, fmt.Errorf("family: topk fraction %g outside (0, 1)", fraction)
	}
	return topK{fraction: fraction}, nil
}

// topK is one topk configuration. fraction 0 selects threshold mode.
type topK struct {
	fraction float64
}

// Name implements lossy.Compressor.
func (topK) Name() string { return NameTopK }

// Compress implements lossy.Compressor.
func (t topK) Compress(data []float32, p lossy.Params) ([]byte, error) {
	eb, err := p.Resolve(data)
	if err != nil {
		return nil, fmt.Errorf("topk: %w", err)
	}
	var idx []int
	var vals []float32
	if t.fraction == 0 {
		// Threshold mode: dropped values reconstruct as 0 with error
		// |v| ≤ eb. The negated condition keeps NaN values verbatim.
		for i, v := range data {
			if !(math.Abs(float64(v)) <= eb) {
				idx = append(idx, i)
				vals = append(vals, v)
			}
		}
	} else {
		k := int(math.Ceil(t.fraction * float64(len(data))))
		if k < 1 {
			k = 1
		}
		if k > len(data) {
			k = len(data)
		}
		// Sort magnitude-descending index permutation, then restore
		// ascending index order for gap encoding.
		perm := make([]int, len(data))
		for i := range perm {
			perm[i] = i
		}
		sort.Slice(perm, func(a, b int) bool {
			ma := math.Abs(float64(data[perm[a]]))
			mb := math.Abs(float64(data[perm[b]]))
			if ma != mb {
				return ma > mb
			}
			return perm[a] < perm[b] // deterministic tie-break
		})
		idx = perm[:k]
		sort.Ints(idx)
		vals = make([]float32, k)
		for i, ix := range idx {
			vals[i] = data[ix]
		}
	}
	out := make([]byte, 0, lossy.MaxHeaderLen+5+len(idx)*9)
	out = lossy.AppendHeader(out, topkMagic, len(data), eb)
	return appendSparse(out, idx, vals), nil
}

// Decompress implements lossy.Compressor. Payloads from every setting
// share one format, so this decodes threshold and fractional frames
// alike.
func (topK) Decompress(buf []byte) ([]float32, error) {
	count, _, rest, err := lossy.ReadHeader(topkMagic, buf)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	return decodeSparse("topk", count, rest)
}
