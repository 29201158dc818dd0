// Package sz3 implements an interpolation-based error-bounded lossy
// compressor modelled on SZ3 (Liang et al., IEEE TBD 2023; Zhao et al.,
// ICDE 2021 "dynamic spline interpolation").
//
// Where SZ2 predicts each value from its immediate predecessor (plus a
// per-block regression), SZ3 predicts values by multi-level spline
// interpolation on a dyadic grid: the coarsest sample is stored
// exactly, then each level predicts the midpoints of the previous level
// with cubic (falling back to linear) interpolation, quantizing the
// residuals with the same error-bounded quantizer, Huffman stage and
// lossless backend as SZ2. This reproduces the paper's observation that
// SZ3 reaches similar ratios to SZ2 on spiky 1-D data at lower
// throughput (the predictor is costlier and level-ordered).
//
// Like sz2, the hot paths are pooled and the decode side feeds the
// interpolation walk from the streaming entropy decoder a block of
// codes at a time, reconstructing directly into the output slice
// (reconstructions are float32-rounded on both sides, so no float64
// shadow array is needed).
package sz3

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"fedsz/internal/huffman"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/quant"
)

const magic = "SZ3\x01"

// compScratch bundles the encode-side transients, recycled across
// Compress calls.
type compScratch struct {
	codes    []int32
	recon    []float32
	outliers []float32
	payload  []byte
}

var compPool = sync.Pool{
	New: func() interface{} { return new(compScratch) },
}

func init() {
	lossy.MustRegisterFamily(lossy.NewSingle("sz3", true, func() lossy.Compressor { return New() }))
}

// Option configures the compressor.
type Option func(*Compressor)

// WithLosslessStage overrides the final lossless stage (nil disables).
func WithLosslessStage(c lossless.Codec) Option {
	return func(s *Compressor) { s.backend = c }
}

// WithLinearOnly disables cubic interpolation (ablation).
func WithLinearOnly() Option {
	return func(s *Compressor) { s.linearOnly = true }
}

// Compressor is the SZ3 codec.
type Compressor struct {
	backend    lossless.Codec
	linearOnly bool
}

var (
	_ lossy.Compressor       = (*Compressor)(nil)
	_ lossy.IntoDecompressor = (*Compressor)(nil)
)

// New returns an SZ3 compressor with the default configuration.
func New(opts ...Option) *Compressor {
	s := &Compressor{backend: lossless.NewLZH(lossless.ProfileZstd)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements lossy.Compressor.
func (s *Compressor) Name() string { return "sz3" }

// Compress implements lossy.Compressor.
func (s *Compressor) Compress(data []float32, p lossy.Params) ([]byte, error) {
	eb, err := p.Resolve(data)
	if err != nil {
		return nil, fmt.Errorf("sz3: %w", err)
	}
	if len(data) == 0 {
		return lossy.WriteHeader(magic, 0, eb), nil
	}
	q := quant.New(eb, 0)
	radius := q.Radius()

	sc := compPool.Get().(*compScratch)
	defer compPool.Put(sc)
	if cap(sc.recon) < len(data) {
		sc.recon = make([]float32, len(data))
	}
	recon := sc.recon[:len(data)]
	recon[0] = data[0] // anchor stored exactly
	// At most one code per element, in visit order: the scratch is sized
	// once and indexed, because the GC empties the pool several times a
	// round and regrowing by append doubling would allocate ~2.5x the
	// final size each time.
	if cap(sc.codes) < len(data) {
		sc.codes = make([]int32, len(data))
	}
	codes, n := sc.codes[:len(data)], 0
	outliers := sc.outliers[:0]

	visit(len(data), func(i, s_ int, cubicOK bool) {
		pred := s.predict(recon, i, s_, cubicOK)
		code, r, ok := q.Encode(float64(data[i]), pred)
		if ok {
			r = float64(float32(r)) // decoder rounds to float32
			if math.Abs(r-float64(data[i])) > eb {
				ok = false
			}
		}
		if !ok {
			codes[n] = 0
			n++
			outliers = append(outliers, data[i])
			recon[i] = data[i]
			return
		}
		codes[n] = int32(code + radius + 1)
		n++
		recon[i] = float32(r)
	})

	payload := sc.payload[:0]
	payload = binary.AppendUvarint(payload, uint64(radius))
	var flags byte
	if s.linearOnly {
		flags |= 1
	}
	payload = append(payload, flags)
	payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(data[0]))
	payload = binary.AppendUvarint(payload, uint64(len(outliers)))
	for _, v := range outliers {
		payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(v))
	}
	payload, err = huffman.AppendEncodeAlphabet(payload, codes[:n], 2*radius+2)
	sc.outliers, sc.payload = outliers[:0], payload[:0]
	if err != nil {
		return nil, fmt.Errorf("sz3: entropy stage: %w", err)
	}

	out := make([]byte, 0, lossy.MaxHeaderLen+1+len(payload))
	out = lossy.AppendHeader(out, magic, len(data), eb)
	if s.backend != nil {
		mark := len(out)
		out = append(out, 1)
		out, err = s.backend.AppendCompress(out, payload)
		if err != nil {
			return nil, fmt.Errorf("sz3: lossless stage: %w", err)
		}
		if len(out)-mark-1 < len(payload) {
			return out, nil
		}
		out = out[:mark] // wrap did not shrink: fall back to raw payload
	}
	out = append(out, 0)
	return append(out, payload...), nil
}

// Decompress implements lossy.Compressor.
func (s *Compressor) Decompress(buf []byte) ([]float32, error) {
	return s.DecompressInto(nil, buf)
}

// DecompressInto implements lossy.IntoDecompressor: the interpolation
// walk writes every element before a prediction reads it, and dst only
// grows once the entropy stage has vouched for the header's count.
func (s *Compressor) DecompressInto(dst []float32, buf []byte) ([]float32, error) {
	count, eb, rest, err := lossy.ReadHeader(magic, buf)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return dst[:0], nil
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: sz3 missing stage flag", lossy.ErrCorrupt)
	}
	payload := rest[1:]
	if rest[0] == 1 {
		backend := s.backend
		if backend == nil {
			backend = lossless.NewLZH(lossless.ProfileZstd)
		}
		var psc *[]byte
		payload, psc, err = lossless.DecompressTransient(backend, payload)
		if psc != nil {
			defer lossless.ReleaseTransient(psc)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: sz3 lossless stage: %v", lossy.ErrCorrupt, err)
		}
	}

	radius64, n := binary.Uvarint(payload)
	if n <= 0 || len(payload) < n+5 {
		return nil, fmt.Errorf("%w: sz3 header", lossy.ErrCorrupt)
	}
	payload = payload[n:]
	linearOnly := payload[0]&1 == 1
	anchor := math.Float32frombits(binary.LittleEndian.Uint32(payload[1:5]))
	payload = payload[5:]

	nOut, n := binary.Uvarint(payload)
	// Division form: int(nOut)*4 could overflow on a forged count.
	if n <= 0 || nOut > uint64(len(payload)-n)/4 {
		return nil, fmt.Errorf("%w: sz3 outliers", lossy.ErrCorrupt)
	}
	payload = payload[n:]
	outlierBytes := payload[:int(nOut)*4]
	payload = payload[int(nOut)*4:]

	// Entropy stage, streamed and fused with the interpolation walk;
	// reconstruction happens directly in the output slice.
	dec := huffman.AcquireDecoder()
	defer dec.Release()
	if err := dec.Open(payload); err != nil {
		return nil, fmt.Errorf("%w: sz3 entropy stage: %v", lossy.ErrCorrupt, err)
	}
	if dec.Count() != count-1 {
		return nil, fmt.Errorf("%w: sz3 code count %d != %d", lossy.ErrCorrupt, dec.Count(), count-1)
	}
	if !quant.ValidStream(radius64, dec.MaxSym()) {
		return nil, fmt.Errorf("%w: sz3 radius %d with codes up to %d", lossy.ErrCorrupt, radius64, dec.MaxSym())
	}
	radius := int(radius64)

	pc := &Compressor{linearOnly: linearOnly}
	q := quant.New(eb, radius)
	out := lossy.Sized(dst, count)
	out[0] = anchor
	oi := 0
	var decodeErr error
	// Codes arrive in visit order, decoded a block at a time.
	var codes [128]int32
	block, next, left := codes[:0], 0, count-1
	visit(count, func(i, s_ int, cubicOK bool) {
		if decodeErr != nil {
			return
		}
		if next == len(block) {
			block, next = codes[:min(left, len(codes))], 0
			left -= len(block)
			if err := dec.DecodeInto(block); err != nil {
				decodeErr = fmt.Errorf("%w: sz3 entropy stage: %v", lossy.ErrCorrupt, err)
				return
			}
		}
		code := block[next]
		next++
		if code == 0 {
			if (oi+1)*4 > len(outlierBytes) {
				decodeErr = fmt.Errorf("%w: sz3 outlier underrun", lossy.ErrCorrupt)
				return
			}
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(outlierBytes[oi*4:]))
			oi++
			return
		}
		pred := pc.predict(out, i, s_, cubicOK)
		out[i] = float32(q.Decode(int(code)-radius-1, pred))
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	return out, nil
}

// visit walks the dyadic interpolation grid from the coarsest stride to
// stride 1, invoking fn for every index except 0 in a deterministic
// order shared by encoder and decoder. cubicOK reports whether all four
// cubic neighbors are in range.
func visit(n int, fn func(i, stride int, cubicOK bool)) {
	if n < 2 {
		return
	}
	maxStride := 1
	for maxStride*2 < n {
		maxStride *= 2
	}
	for s := maxStride; s >= 1; s /= 2 {
		for i := s; i < n; i += 2 * s {
			cubicOK := i-3*s >= 0 && i+3*s < n
			fn(i, s, cubicOK)
		}
	}
}

// predict computes the interpolation prediction for index i at the
// given stride using already-reconstructed dyadic neighbors. The
// neighbors are float32-rounded on both encode and decode, so float32
// storage loses nothing; the arithmetic itself stays in float64.
func (s *Compressor) predict(recon []float32, i, stride int, cubicOK bool) float64 {
	n := len(recon)
	left := float64(recon[i-stride])
	if i+stride >= n {
		return left // boundary: Lorenzo fallback
	}
	right := float64(recon[i+stride])
	if cubicOK && !s.linearOnly {
		l2 := float64(recon[i-3*stride])
		r2 := float64(recon[i+3*stride])
		return (-l2 + float64(9*left) + float64(9*right) - r2) / 16
	}
	return (left + right) / 2
}
