package family

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedsz/internal/huffman"
	"fedsz/internal/lossy"
	"fedsz/internal/quant"
)

// NamePred is the registry name of the gradient-aware predictor
// family.
const NamePred = "pred"

const predMagic = "FPR1"

func init() {
	lossy.MustRegisterFamily(lossy.Family{Name: NamePred, Bounded: true, New: func() lossy.Compressor { return pred{} }})
}

// pred is a gradient-aware error-bounded compressor built on
// magnitude/sign-guided residual prediction. Gradient-like tensors
// (FL model updates) defeat value-domain Lorenzo prediction because
// neighbouring values flip sign near-independently, but their
// *magnitude* profile is smooth and heavy-tailed. The codec therefore
// splits each value into an exact sign bit and a magnitude stream:
// magnitudes are Lorenzo-predicted from the previous reconstructed
// magnitude, residuals are quantized with the shared error-bounded
// quantizer, and the codes are entropy-coded with canonical Huffman.
// The sign is exact and the magnitude reconstructs within ε, so the
// value does too: pred is error bounded.
type pred struct{}

// Name implements lossy.Compressor.
func (pred) Name() string { return NamePred }

// Compress implements lossy.Compressor.
//
// Payload: uvarint(radius) | sign bitmap ((n+7)/8 bytes, bit i set
// when value i is negative) | uvarint(nOutliers) | outlier magnitudes
// (float32 each) | Huffman stream of n codes (0 = outlier, else
// quantizer code + radius + 1).
func (pred) Compress(data []float32, p lossy.Params) ([]byte, error) {
	eb, err := p.Resolve(data)
	if err != nil {
		return nil, fmt.Errorf("pred: %w", err)
	}
	if len(data) == 0 {
		return lossy.WriteHeader(predMagic, 0, eb), nil
	}
	q := quant.New(eb, 0)
	radius := q.Radius()

	signs := make([]byte, (len(data)+7)/8)
	codes := make([]int32, 0, len(data))
	var outliers []float32
	prev := 0.0 // previous reconstructed magnitude
	for i, v := range data {
		if math.Signbit(float64(v)) {
			signs[i/8] |= 1 << uint(i%8)
		}
		mag := math.Abs(float64(v))
		code, recon, ok := q.Encode(mag, prev)
		if ok {
			// The decoder stores magnitudes as float32; mirror that
			// rounding so predictions stay in sync, and demote to
			// outlier if rounding breaks the bound.
			recon = float64(float32(recon))
			if math.Abs(recon-mag) > eb {
				ok = false
			}
		}
		if !ok {
			codes = append(codes, 0)
			m := float32(mag)
			outliers = append(outliers, m)
			prev = float64(m)
			continue
		}
		codes = append(codes, int32(code+radius+1))
		prev = recon
	}

	payload := make([]byte, 0, binary.MaxVarintLen64*2+len(signs)+len(outliers)*4+len(codes)/2+64)
	payload = binary.AppendUvarint(payload, uint64(radius))
	payload = append(payload, signs...)
	payload = binary.AppendUvarint(payload, uint64(len(outliers)))
	for _, m := range outliers {
		payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(m))
	}
	payload, err = huffman.AppendEncodeAlphabet(payload, codes, 2*radius+2)
	if err != nil {
		return nil, fmt.Errorf("pred: entropy stage: %w", err)
	}

	out := make([]byte, 0, lossy.MaxHeaderLen+len(payload))
	out = lossy.AppendHeader(out, predMagic, len(data), eb)
	return append(out, payload...), nil
}

// Decompress implements lossy.Compressor.
func (pred) Decompress(buf []byte) ([]float32, error) {
	count, eb, rest, err := lossy.ReadHeader(predMagic, buf)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if count > maxElems {
		return nil, fmt.Errorf("%w: pred element count %d", lossy.ErrCorrupt, count)
	}

	radius64, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("%w: pred radius", lossy.ErrCorrupt)
	}
	rest = rest[n:]

	signBytes := (count + 7) / 8
	if len(rest) < signBytes {
		return nil, fmt.Errorf("%w: pred sign bitmap", lossy.ErrCorrupt)
	}
	signs := rest[:signBytes]
	rest = rest[signBytes:]

	nOut, n := binary.Uvarint(rest)
	// Division form: int(nOut)*4 could overflow on a forged count.
	if n <= 0 || nOut > uint64(len(rest)-n)/4 {
		return nil, fmt.Errorf("%w: pred outliers", lossy.ErrCorrupt)
	}
	rest = rest[n:]
	outlierBytes := rest[:int(nOut)*4]
	rest = rest[int(nOut)*4:]

	dec := huffman.AcquireDecoder()
	defer dec.Release()
	if err := dec.Open(rest); err != nil {
		return nil, fmt.Errorf("%w: pred entropy stage: %v", lossy.ErrCorrupt, err)
	}
	if dec.Count() != count {
		return nil, fmt.Errorf("%w: pred code count %d != %d", lossy.ErrCorrupt, dec.Count(), count)
	}
	if !quant.ValidStream(radius64, dec.MaxSym()) {
		return nil, fmt.Errorf("%w: pred radius %d with codes up to %d", lossy.ErrCorrupt, radius64, dec.MaxSym())
	}
	radius := int(radius64)

	q := quant.New(eb, radius)
	out := make([]float32, count)
	prev := 0.0
	oi := 0
	var codes [128]int32
	for i := 0; i < count; i++ {
		j := i % len(codes)
		if j == 0 {
			if err := dec.DecodeInto(codes[:min(count-i, len(codes))]); err != nil {
				return nil, fmt.Errorf("%w: pred entropy stage: %v", lossy.ErrCorrupt, err)
			}
		}
		code := codes[j]
		var mag float32
		if code == 0 {
			if (oi+1)*4 > len(outlierBytes) {
				return nil, fmt.Errorf("%w: pred outlier underrun", lossy.ErrCorrupt)
			}
			mag = math.Float32frombits(binary.LittleEndian.Uint32(outlierBytes[oi*4:]))
			oi++
		} else {
			mag = float32(q.Decode(int(code)-radius-1, prev))
		}
		prev = float64(mag)
		if signs[i/8]>>uint(i%8)&1 == 1 {
			out[i] = -mag
		} else {
			out[i] = mag
		}
	}
	return out, nil
}
