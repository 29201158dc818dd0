// Package sz2 implements a prediction-based error-bounded lossy
// compressor modelled on SZ2 (Liang et al., "Error-controlled lossy
// compression optimized for high compression ratios of scientific
// datasets", IEEE Big Data 2018) — the compressor the FedSZ paper
// selects as its winner.
//
// The pipeline follows SZ2's hybrid design specialized to 1-D data
// (FL model parameters are flattened before compression):
//
//  1. the input is processed in fixed-size blocks;
//  2. for each block, a 1-step Lorenzo predictor and a linear
//     regression predictor are evaluated and the cheaper one (by
//     estimated residual magnitude) is selected;
//  3. each regression block's two coefficients are predicted from the
//     previous regression block's and the difference is quantized, the
//     intercept to θ·eb and the slope to θ·eb/BlockSize (θ = coefTheta);
//     the codes get their own small Huffman stream, and a coefficient
//     out of the coefficient radius is stored verbatim;
//  4. prediction residuals are quantized with an error-bounded linear
//     quantizer, against the dequantized coefficients the decoder
//     rebuilds; unpredictable values are stored verbatim;
//  5. quantization codes are entropy-coded with canonical Huffman;
//  6. the final payload is passed through a fast lossless stage
//     (standing in for SZ2's Zstd call).
//
// θ is small because a coefficient's error moves every element of its
// block the same way: the element quantizer absorbs it where residuals
// span several steps, but where they sit inside one step it becomes a
// block-wide bias, and correlated error slows federated training (see
// regressionWins). Sections of the first version (magic SZ2\x01), which
// carried both coefficients as raw float32s, still decode through the
// same reconstruction loop.
//
// Decompression reproduces every value within the absolute error bound
// recorded in the header; this is asserted by property-based tests.
//
// Both directions run allocation-free beyond their output buffer: all
// scratch (quantization codes, the payload assembly buffer, block
// metadata) is pooled, the entropy stage is decoded a 128-element block
// at a time (huffman.Decoder.DecodeInto) just ahead of that block's
// reconstruction, and the lossless wrap appends directly into the
// output frame. A section's element codes average 2 to 3 bits, so for
// a section of 8 192 elements or more the Huffman decoder builds its
// multi-code table and takes several codes per probe, a block's last
// ones included; the coefficient codes (about 5 bits) and the lossless
// stage's byte tokens (about 8) fail its gate and decode a code per
// probe. Either way the codes, and where a corrupt section fails, are a
// bit-serial decoder's.
//
// # Encoder kernel
//
// Compress widens each block once into a pooled float64 view that the
// fit, the selection and the quantizer all read. A float32→float64
// convert (CVTSS2SD) writes only the low lane of its register, so a loop
// that converts as it goes waits each iteration on the last one, divide
// latency included. Quantization then runs one loop per block mode: a
// regression block's predictions depend on the element index alone,
// while a Lorenzo block stays serial through its reconstruction. Both
// loops keep quant.Quantizer.Encode's expressions in its order and
// round with quant.Round, so every code, coefficient and outlier, and
// so every byte, equals a per-element Encode loop's; kernel_test.go
// keeps that loop as the reference.
//
// The fit and the selection need no reconstruction but the one before
// the block, so on amd64 with AVX2 (below) and regression on, predict
// widens and fits runs of four full blocks with one kernel call,
// fitBlocksAVX2, one block per lane: the lanes are independent, so each
// keeps fitLine's and regressionWins' sums in their order, bit for bit,
// multiplying then adding. Lorenzo's sum is the one term that links a
// block to the last: its first term is |x0 − prevRecon|, and prevRecon
// exists only once the last block is quantized. The kernel sums the
// chain without that term, L0, and a block whose residual sum is under
// 0.8·L0 is a regression block without waiting: the term is ≥ 0, and a
// rounded sum and the 0.8 multiply are monotone, so the full sum is at
// least L0, unless the term is NaN, which makes the full rule false. A
// block the bound cannot decide (on a MobileNetV2 update, 16 of 27 052)
// sums the full chain from prevRecon and takes regressionWins'
// comparison. Runs of fewer than four full blocks, a partial last block
// and builds without the kernel fit each block with fitLine.
//
// Every product that is then added is written float64(x*y): the Go
// spec lets a compiler fuse x*y + z into one rounding, the arm64 backend
// does, and the explicit conversion forbids it, so every architecture
// rounds as amd64 does and an arm64 decoder rebuilds the values the
// encoder checked against eb. scripts/fma_gate.sh fails on a fused
// multiply-add in the arm64 build of the codecs and the aggregators.
//
// On amd64 with AVX2, detected once at init from CPUID and XGETBV
// (kernel_amd64.s), a regression block is quantized four values per
// step: the same multiply then add (never FMA), a divide (never a
// reciprocal), a round to nearest even with quant.Round's tie fix-up,
// the float32 mirror and every check as an ordered compare, so each
// lane's code and reconstruction equal the scalar loop's bit for bit.
// Go appends the failed lanes' values to the outliers in element order,
// and the scalar loop codes the len%4 tail. The decoder rebuilds a
// regression block's four-lane groups the same way and puts the
// outliers in after. Lorenzo blocks are serial and stay scalar in both
// directions, and without AVX2, or off amd64, the scalar loops are the
// only kernels. There is no switch: the two paths write the same bytes,
// which the tests check on both.
package sz2

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"fedsz/internal/huffman"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/quant"
)

// compScratch bundles the encode-side transients — the quantization
// codes (one int32 per element, the largest), block modes, regression
// coefficients and their codes, outliers and the assembled payload —
// recycled across Compress calls.
type compScratch struct {
	codes     []int32
	modes     []byte
	coefCodes []int32 // two per regression block, 0 for a verbatim coefficient
	verbatim  []float32
	outliers  []float32
	coefs     []byte // the coefficient stream, built before its length prefix
	payload   []byte
	view      [4 * BlockSize]float64 // the current block, or fitBlocksAVX2's four, widened once
	lanes     [4 * BlockSize]float64 // fitBlocksAVX2's lane-major copy
	fits      laneFits
}

// laneFits is fitBlocksAVX2's output, lane j for block j: the fitted
// line, the residual sum regressionWins takes, and the Lorenzo sum
// without its first term.
type laneFits struct {
	a0, a1, regress, lorenzo [4]float64
}

var compPool = sync.Pool{
	New: func() interface{} { return new(compScratch) },
}

const (
	magic   = "SZ2\x02"
	magicV1 = "SZ2\x01" // raw float32 coefficients: decoded, never written

	// BlockSize is the 1-D prediction block length (SZ2 uses small
	// multi-dimensional blocks; 128 is its 1-D equivalent).
	BlockSize = 128

	// coefTheta is θ, the share of the element bound a coefficient's
	// quantization may spend. At θ = 1 the block bias cost a federation
	// 12 points of accuracy; at 1/16 it trains as raw coefficients did.
	coefTheta = 1.0 / 16
	// coefRadius is the coefficient codes' radius: a small alphabet keeps
	// their histogram and code table cheap.
	coefRadius = 1 << 10
)

// Block predictor selectors (2 bits on the wire).
const (
	predLorenzo = 0
	predRegress = 1
)

func init() {
	lossy.MustRegisterFamily(lossy.Family{Name: "sz2", Bounded: true, New: func() lossy.Compressor { return New() }})
}

// Option configures the compressor.
type Option func(*Compressor)

// WithLosslessStage overrides the final lossless stage. Passing nil
// disables the stage (useful for ablations).
func WithLosslessStage(c lossless.Codec) Option {
	return func(s *Compressor) { s.backend = c }
}

// WithoutRegression disables the regression predictor, leaving pure
// Lorenzo prediction (ablation of SZ2's hybrid design).
func WithoutRegression() Option {
	return func(s *Compressor) { s.noRegression = true }
}

// Compressor is the SZ2 codec. The zero value is not usable; call New.
type Compressor struct {
	backend      lossless.Codec
	noRegression bool
}

var (
	_ lossy.Compressor       = (*Compressor)(nil)
	_ lossy.IntoDecompressor = (*Compressor)(nil)
)

// New returns an SZ2 compressor with the default configuration
// (zstd-like final stage, hybrid prediction).
func New(opts ...Option) *Compressor {
	s := &Compressor{backend: lossless.NewLZH(lossless.ProfileZstd)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements lossy.Compressor.
func (s *Compressor) Name() string { return "sz2" }

// Compress implements lossy.Compressor.
func (s *Compressor) Compress(data []float32, p lossy.Params) ([]byte, error) {
	eb, err := p.Resolve(data)
	if err != nil {
		return nil, fmt.Errorf("sz2: %w", err)
	}
	if len(data) == 0 {
		return lossy.WriteHeader(magic, 0, eb), nil
	}
	sc := compPool.Get().(*compScratch)
	defer compPool.Put(sc)
	s.predict(sc, data, eb)
	payload, err := sc.appendPayload()
	if err != nil {
		return nil, fmt.Errorf("sz2: entropy stage: %w", err)
	}
	return s.frame(payload, len(data), eb)
}

// predict runs the block loop — widen, fit and select, code the
// coefficients, quantize — and leaves its output in sc: one mode per
// block, the coefficient codes and verbatim coefficients of each
// regression block, one code per element and the outliers, in element
// order.
func (s *Compressor) predict(sc *compScratch, data []float32, eb float64) {
	nBlocks := (len(data) + BlockSize - 1) / BlockSize
	if cap(sc.modes) < nBlocks {
		sc.modes = make([]byte, nBlocks)
	}
	sc.modes = sc.modes[:nBlocks]
	// One code per element, so the scratch is sized once and indexed:
	// the GC empties the pool several times a round, and regrowing by
	// append doubling would allocate ~2.5x the final size each time.
	if cap(sc.codes) < len(data) {
		sc.codes = make([]int32, len(data))
	}
	sc.codes = sc.codes[:len(data)]
	sc.coefCodes = slices.Grow(sc.coefCodes[:0], 2*nBlocks) // sized once, as codes is
	sc.verbatim = sc.verbatim[:0]
	chain := newCoefChain(eb)
	k := kernel{
		eb: eb, step: 2 * eb, tol: eb * (1 + 1e-9),
		radius: quant.DefaultRadius, outliers: sc.outliers[:0],
	}

	prevRecon := 0.0 // reconstruction of the last value of the previous block
	for b := 0; b < nBlocks; {
		lo := b * BlockSize
		run := s.widen(sc, data, lo)
		for j := range run {
			view := sc.view[j*BlockSize : j*BlockSize+min(BlockSize, len(data)-lo-j*BlockSize)]
			regress, a0, a1 := s.pick(sc, run, j, view, prevRecon)
			prevRecon = sc.code(&k, &chain, b+j, data, view, prevRecon, regress, a0, a1)
		}
		b += run
	}
	sc.outliers = k.outliers
}

// widen widens the run of blocks from element lo on into sc.view and
// returns how many blocks it holds. Where the AVX2 path runs with
// regression on, a run is four full blocks, which fitBlocksAVX2 also
// fits into sc.fits, a lane each: no block's sums wait on another's.
// Otherwise a run is one block, which pick fits. Widening once means
// the fit, the selection and the quantizer all read whole float64s, so
// no loop carries a partial-register convert.
func (s *Compressor) widen(sc *compScratch, data []float32, lo int) (run int) {
	if useAVX2 && !s.noRegression && len(data)-lo >= 4*BlockSize {
		fitBlocksAVX2(&sc.view, &sc.lanes, (*[4 * BlockSize]float32)(data[lo:]), &sc.fits)
		return 4
	}
	for i, v := range data[lo:min(lo+BlockSize, len(data))] {
		sc.view[i] = float64(v)
	}
	return 1
}

// pick chooses the predictor of block j of a run widen left in sc, view
// its widened values and prevRecon the reconstruction before it, and
// returns the block's fitted line. A four-block run waits on prevRecon
// only where regressionWinsLanes' bound cannot decide.
func (s *Compressor) pick(sc *compScratch, run, j int, view []float64, prevRecon float64) (regress bool, a0, a1 float64) {
	switch {
	case s.noRegression:
		return false, 0, 0
	case run == 4:
		f := &sc.fits
		return regressionWinsLanes(view, prevRecon, f.regress[j], f.lorenzo[j]), f.a0[j], f.a1[j]
	}
	a0, a1, lorenzo := fitLine(view, prevRecon)
	return regressionWins(view, a0, a1, lorenzo), a0, a1
}

// code records block b's mode and quantizes its widened values view
// into sc, a regression block against the coefficient pair the decoder
// rebuilds from the chain, so every element is checked against eb as
// the decoder sees it. It returns the reconstruction of the block's last
// value.
func (sc *compScratch) code(k *kernel, chain *coefChain, b int, data []float32, view []float64, prevRecon float64, regress bool, a0, a1 float64) float64 {
	lo := b * BlockSize
	codes, block := sc.codes[lo:lo+len(view)], data[lo:lo+len(view)]
	if !regress {
		sc.modes[b] = predLorenzo
		return k.lorenzo(codes, block, view, prevRecon)
	}
	sc.modes[b] = predRegress
	a0, a1 = sc.codeCoef(chain, 0, a0), sc.codeCoef(chain, 1, a1)
	return k.regress(codes, block, view, a0, a1)
}

// codeCoef codes coefficient j (0 the intercept, 1 the slope) of a
// regression block into sc and returns the value the decoder rebuilds:
// the chain's dequantized value, or a verbatim float32 (code 0) for a
// coefficient that is non-finite or beyond the radius.
func (sc *compScratch) codeCoef(c *coefChain, j int, a float64) float64 {
	q := quant.Round((a - c.prev[j]) / c.step[j])
	if !(q >= -coefRadius && q <= coefRadius) {
		sc.coefCodes = append(sc.coefCodes, 0)
		sc.verbatim = append(sc.verbatim, float32(a))
		c.prev[j] = float64(float32(a))
		return c.prev[j]
	}
	sc.coefCodes = append(sc.coefCodes, int32(q)+coefRadius+1)
	return c.next(j, int(q))
}

// appendPayload assembles predict's output into sc.payload: radius,
// packed modes, then — only if some block is a regression block — the
// length-prefixed coefficient stream and the verbatim coefficients,
// then the outliers and the element codes' entropy stream appended in
// place.
func (sc *compScratch) appendPayload() ([]byte, error) {
	radius := quant.DefaultRadius
	payload := sc.payload[:0]
	payload = binary.AppendUvarint(payload, uint64(radius))
	payload = appendPackedModes(payload, sc.modes)
	if len(sc.coefCodes) > 0 {
		var err error
		if sc.coefs, err = huffman.AppendEncodeAlphabet(sc.coefs[:0], sc.coefCodes, 2*coefRadius+2); err != nil {
			return nil, err
		}
		payload = binary.AppendUvarint(payload, uint64(len(sc.coefs)))
		payload = append(payload, sc.coefs...)
		payload = appendFloats(payload, sc.verbatim)
	}
	payload = appendFloats(payload, sc.outliers)
	payload, err := huffman.AppendEncodeAlphabet(payload, sc.codes, 2*radius+2)
	if err != nil {
		return nil, err
	}
	sc.payload = payload // keep the grown buffer for the next call
	return payload, nil
}

// appendFloats appends a count, then each value's little-endian bits.
func appendFloats(dst []byte, vs []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// frame returns the section: one pre-sized output buffer holding the
// header, the stage flag, then either the lossless wrap appended in
// place or the raw payload.
func (s *Compressor) frame(payload []byte, count int, eb float64) ([]byte, error) {
	out := make([]byte, 0, lossy.MaxHeaderLen+1+len(payload))
	out = lossy.AppendHeader(out, magic, count, eb)
	if s.backend != nil {
		mark := len(out)
		var err error
		out, err = s.backend.AppendCompress(append(out, 1), payload)
		if err != nil {
			return nil, fmt.Errorf("sz2: lossless stage: %w", err)
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

// DecompressInto implements lossy.IntoDecompressor: the reconstruction
// loop writes every element, and dst only grows once the entropy stage
// has vouched for the header's element count.
func (s *Compressor) DecompressInto(dst []float32, buf []byte) ([]float32, error) {
	v1 := len(buf) >= len(magicV1) && string(buf[:len(magicV1)]) == magicV1
	m := magic
	if v1 {
		m = magicV1
	}
	count, eb, rest, err := lossy.ReadHeader(m, buf)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return dst[:0], nil
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: sz2 missing stage flag", lossy.ErrCorrupt)
	}
	wrapped := rest[0] == 1
	payload := rest[1:]
	if wrapped {
		backend := s.backend
		if backend == nil {
			backend = lossless.NewLZH(lossless.ProfileZstd)
		}
		// The unwrapped payload is transient (fully consumed before
		// return), so it lives in pooled scratch, recycled only after
		// the entropy decoder — which reads straight out of payload —
		// has finished.
		var psc *[]byte
		payload, psc, err = lossless.DecompressTransient(backend, payload)
		if psc != nil {
			defer lossless.ReleaseTransient(psc)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: sz2 lossless stage: %v", lossy.ErrCorrupt, err)
		}
	}

	radius64, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, fmt.Errorf("%w: sz2 radius", lossy.ErrCorrupt)
	}
	payload = payload[n:]

	nBlocks := (count + BlockSize - 1) / BlockSize
	modeBytes := (nBlocks + 3) / 4
	if len(payload) < modeBytes {
		return nil, fmt.Errorf("%w: sz2 block modes", lossy.ErrCorrupt)
	}
	packedModes := payload[:modeBytes]
	payload = payload[modeBytes:]
	nRegress := 0
	for b := 0; b < nBlocks; b++ {
		mode := packedModes[b/4] >> uint((b%4)*2) & 3
		if mode > predRegress {
			return nil, fmt.Errorf("%w: sz2 block %d mode %d", lossy.ErrCorrupt, b, mode)
		}
		nRegress += int(mode)
	}

	var coefs coefSource
	switch {
	case v1:
		if coefs.raw, payload, err = cutFloats(payload, "coefficients"); err != nil {
			return nil, err
		}
	case nRegress > 0:
		size, n := binary.Uvarint(payload)
		if n <= 0 || size > uint64(len(payload)-n) {
			return nil, fmt.Errorf("%w: sz2 coefficient stream", lossy.ErrCorrupt)
		}
		stream := payload[n : n+int(size)]
		payload = payload[n+int(size):]
		if coefs.raw, payload, err = cutFloats(payload, "verbatim coefficients"); err != nil {
			return nil, err
		}
		coefs.dec = huffman.AcquireDecoder()
		defer coefs.dec.Release()
		if err := coefs.dec.Open(stream); err != nil {
			return nil, fmt.Errorf("%w: sz2 coefficient stage: %v", lossy.ErrCorrupt, err)
		}
		// Two codes per regression block, no more and no fewer.
		if coefs.dec.Count() != 2*nRegress {
			return nil, fmt.Errorf("%w: sz2 %d coefficient codes for %d regression blocks",
				lossy.ErrCorrupt, coefs.dec.Count(), nRegress)
		}
		if coefs.dec.MaxSym() > 2*coefRadius+1 {
			return nil, fmt.Errorf("%w: sz2 coefficient code %d", lossy.ErrCorrupt, coefs.dec.MaxSym())
		}
		coefs.chain = newCoefChain(eb)
	}
	outlierBytes, payload, err := cutFloats(payload, "outliers")
	if err != nil {
		return nil, err
	}

	// Entropy stage, streamed a block at a time into stack scratch ahead
	// of the reconstruction loop, so no code array is materialized — the
	// output slice is this function's only sizeable allocation.
	dec := huffman.AcquireDecoder()
	defer dec.Release()
	if err := dec.Open(payload); err != nil {
		return nil, fmt.Errorf("%w: sz2 entropy stage: %v", lossy.ErrCorrupt, err)
	}
	if dec.Count() != count {
		return nil, fmt.Errorf("%w: sz2 code count %d != %d", lossy.ErrCorrupt, dec.Count(), count)
	}
	// Checked once here, this keeps every code−radius−1 below, and the
	// vector kernel's int32 lanes, exact.
	if !quant.ValidStream(radius64, dec.MaxSym()) {
		return nil, fmt.Errorf("%w: sz2 radius %d with codes up to %d", lossy.ErrCorrupt, radius64, dec.MaxSym())
	}
	radius := int(radius64)

	q := quant.New(eb, radius)
	out := lossy.Sized(dst, count)
	prevRecon := 0.0
	oi := 0
	var codes [BlockSize]int32
	for b := 0; b < nBlocks; b++ {
		lo := b * BlockSize
		hi := min(lo+BlockSize, count)
		mode := packedModes[b/4] >> uint((b%4)*2) & 3
		var a0, a1 float64
		if mode == predRegress {
			if a0, a1, err = coefs.pair(); err != nil {
				return nil, err
			}
		}
		block := codes[:hi-lo]
		if err := dec.DecodeInto(block); err != nil {
			return nil, fmt.Errorf("%w: sz2 entropy stage: %v", lossy.ErrCorrupt, err)
		}
		start := 0
		if mode == predRegress && useAVX2 && len(block) >= 4 {
			// No regression prediction reads a reconstruction, so the
			// kernel writes every value of the four-lane groups and the
			// outliers among them are put in after.
			start = len(block) &^ 3
			if reconRegressAVX2(out[lo:lo+start], block[:start], a0, a1, 2*eb, int32(radius+1)) {
				for i, code := range block[:start] {
					if code == 0 {
						if out[lo+i], oi, err = nextOutlier(outlierBytes, oi); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		recon := prevRecon
		for i := start; i < len(block); i++ {
			if code := block[i]; code == 0 {
				var v float32
				if v, oi, err = nextOutlier(outlierBytes, oi); err != nil {
					return nil, err
				}
				recon = float64(v)
			} else {
				var pred float64
				if mode == predRegress {
					pred = a0 + float64(a1*float64(i))
				} else {
					pred = recon
				}
				recon = q.Decode(int(code)-radius-1, pred)
			}
			out[lo+i] = float32(recon)
			recon = float64(out[lo+i])
		}
		prevRecon = float64(out[hi-1])
	}
	// The encoder writes exactly the coefficients and outliers its blocks
	// use; leftovers mean a forged or misassembled section.
	if coefs.used*4 != len(coefs.raw) || oi*4 != len(outlierBytes) {
		return nil, fmt.Errorf("%w: sz2 blocks used %d of %d stored coefficients and %d of %d outliers",
			lossy.ErrCorrupt, coefs.used, len(coefs.raw)/4, oi, len(outlierBytes)/4)
	}
	return out, nil
}

// nextOutlier returns outlier oi of the 4-byte values in b and the next
// index.
func nextOutlier(b []byte, oi int) (float32, int, error) {
	if (oi+1)*4 > len(b) {
		return 0, oi, fmt.Errorf("%w: sz2 outlier underrun", lossy.ErrCorrupt)
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b[oi*4:])), oi + 1, nil
}

// cutFloats splits a count-prefixed run of float32s off the front of
// payload.
func cutFloats(payload []byte, what string) (run, rest []byte, err error) {
	k, n := binary.Uvarint(payload)
	// Division form: int(k)*4 could overflow on a forged count.
	if n <= 0 || k > uint64(len(payload)-n)/4 {
		return nil, nil, fmt.Errorf("%w: sz2 %s", lossy.ErrCorrupt, what)
	}
	return payload[n : n+int(k)*4], payload[n+int(k)*4:], nil
}

// coefChain is the coefficient predictor both sides run: each of a
// regression block's intercept (j = 0) and slope (j = 1) is predicted
// from the previous regression block's dequantized one, from 0 at the
// start, with steps of 2θ·eb and 2θ·eb/BlockSize.
type coefChain struct {
	step, prev [2]float64
}

func newCoefChain(eb float64) coefChain {
	step := 2 * coefTheta * eb
	return coefChain{step: [2]float64{step, step / BlockSize}}
}

// next dequantizes code q of coefficient j and makes it the next
// prediction.
func (c *coefChain) next(j, q int) float64 {
	c.prev[j] += float64(float64(q) * c.step[j])
	return c.prev[j]
}

// coefSource hands the reconstruction loop each regression block's
// coefficient pair. A v1 section reads both from raw; a v2 section
// decodes two codes from dec and rebuilds each from the chain, taking
// the next verbatim value from raw for code 0. dec is nil for a v1
// section (and for a v2 section with no regression block, which never
// asks for a pair).
type coefSource struct {
	dec   *huffman.Decoder
	chain coefChain
	raw   []byte // 4 bytes per float32
	used  int    // float32s taken from raw
	codes [2]int32
}

func (c *coefSource) pair() (a0, a1 float64, err error) {
	if c.dec == nil {
		if a0, err = c.take(); err == nil {
			a1, err = c.take()
		}
		return a0, a1, err
	}
	if err := c.dec.DecodeInto(c.codes[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: sz2 coefficient stage: %v", lossy.ErrCorrupt, err)
	}
	var a [2]float64
	for j, code := range c.codes {
		if code == 0 {
			if a[j], err = c.take(); err != nil {
				return 0, 0, err
			}
			c.chain.prev[j] = a[j]
		} else {
			a[j] = c.chain.next(j, int(code)-coefRadius-1)
		}
	}
	return a[0], a[1], nil
}

// take reads the next float32 from raw.
func (c *coefSource) take() (float64, error) {
	if (c.used+1)*4 > len(c.raw) {
		return 0, fmt.Errorf("%w: sz2 coefficient underrun", lossy.ErrCorrupt)
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(c.raw[c.used*4:]))
	c.used++
	return float64(v), nil
}

// kernel is quant.Quantizer.Encode at sz2's radius, followed by the
// float32 mirror of the decoder's store, as one loop per block mode.
// Each loop keeps Encode's expressions in its order — a divide, never a
// reciprocal multiply; pred + float64(code)·step; the eb·(1+1e-9)
// check — then checks against eb after the float32 store, which keeps
// Lorenzo predictions in sync with the decoder. A NaN anywhere fails a
// check and makes the value an outlier: code 0, stored verbatim.
type kernel struct {
	eb, step, tol float64 // tol is Encode's eb·(1+1e-9)
	radius        int
	outliers      []float32
}

// regress codes a regression block: each prediction depends on i
// alone, so no chain runs from one element to the next. It returns the
// reconstruction of the block's last value. Where the CPU has AVX2,
// regressAVX2 codes the block four values at a time and this loop codes
// the len%4 tail.
func (k *kernel) regress(codes []int32, block []float32, view []float64, a0, a1 float64) (recon float64) {
	eb, step, tol, radius := k.eb, k.step, k.tol, k.radius
	rad := float64(radius)
	codes, block = codes[:len(view)], block[:len(view)]
	start := 0
	if useAVX2 && len(view) >= 4 {
		start = len(view) &^ 3
		var failed bool
		recon, failed = regressAVX2(codes[:start], view[:start], a0, a1, step, tol, eb, rad)
		if failed {
			for i, c := range codes[:start] {
				if c == 0 {
					k.outliers = append(k.outliers, block[i])
				}
			}
		}
	}
	for i := start; i < len(view); i++ {
		x := view[i]
		pred := a0 + float64(a1*float64(i))
		c := quant.Round((x - pred) / step)
		code := int(c)
		r := pred + float64(float64(code)*step)
		f := float64(float32(r))
		if d, e := r-x, f-x; !(c >= -rad && c <= rad) || d > tol || d < -tol || e > eb || e < -eb {
			codes[i] = 0
			k.outliers = append(k.outliers, block[i])
			recon = x
			continue
		}
		codes[i] = int32(code + radius + 1)
		recon = f
	}
	return recon
}

// lorenzo codes a Lorenzo block, each value predicted from the last
// reconstruction, starting at recon.
func (k *kernel) lorenzo(codes []int32, block []float32, view []float64, recon float64) float64 {
	eb, step, tol, radius := k.eb, k.step, k.tol, k.radius
	rad := float64(radius)
	codes, block = codes[:len(view)], block[:len(view)]
	for i, x := range view {
		pred := recon
		c := quant.Round((x - pred) / step)
		code := int(c)
		r := pred + float64(float64(code)*step)
		f := float64(float32(r))
		if d, e := r-x, f-x; !(c >= -rad && c <= rad) || d > tol || d < -tol || e > eb || e < -eb {
			codes[i] = 0
			k.outliers = append(k.outliers, block[i])
			recon = x
			continue
		}
		codes[i] = int32(code + radius + 1)
		recon = f
	}
	return recon
}

// fitLine computes the least-squares line a0 + a1*i over the block
// and, in the same pass, regressionWins' Lorenzo residual sum from prev
// (the reconstruction before the block).
func fitLine(block []float64, prev float64) (a0, a1, lorenzo float64) {
	var sumY, sumXY float64
	for i, x := range block {
		sumY += x
		sumXY += float64(float64(i) * x)
		lorenzo += math.Abs(x - prev)
		prev = x // approximate: original value as prediction basis
	}
	n := float64(len(block))
	if len(block) < 2 {
		if len(block) == 1 {
			return block[0], 0, lorenzo
		}
		return 0, 0, 0
	}
	sumX := n * (n - 1) / 2
	sumXX := (n - 1) * n * (2*n - 1) / 6
	denom := float64(n*sumXX) - float64(sumX*sumX)
	if denom == 0 {
		return sumY / n, 0, lorenzo
	}
	a1 = (float64(n*sumXY) - float64(sumX*sumY)) / denom
	a0 = (sumY - float64(a1*sumX)) / n
	return a0, a1, lorenzo
}

// regressionWins estimates, against the original values (SZ2's
// selection heuristic), whether regression yields smaller residuals
// than Lorenzo, whose sum fitLine has taken. The 0.8 discount charges
// for the coefficients a regression block must carry.
//
// Do not raise the discount to suppress regression on iid data even
// though Lorenzo-only compresses such data better: Lorenzo
// reconstruction error is serially correlated along the tensor (each
// value is predicted from the previous reconstruction), and in
// federated training that correlated error measurably slows
// convergence, while regression blocks decorrelate it. The hybrid is a
// fidelity choice, not only a ratio choice — consistent with the
// paper's selection of SZ2.
func regressionWins(block []float64, a0, a1, lorenzo float64) bool {
	var regress float64
	for i, x := range block {
		regress += math.Abs(x - (a0 + float64(a1*float64(i))))
	}
	return regress < lorenzo*0.8
}

// regressionWinsLanes is regressionWins for a block fitBlocksAVX2 fitted,
// which took the Lorenzo sum from0 without its first term
// t0 = |view[0] − prevRecon|: the chain started at prev = view[0]. As
// t0 ≥ 0 and a rounded sum and the 0.8 multiply are monotone, the full
// sum is at least from0, so regress < 0.8·from0 picks regression
// without prevRecon unless t0 is NaN, which makes the full sum NaN and
// the rule false. Otherwise the full sum is taken serially from
// prevRecon, as fitLine takes it, and compared as regressionWins does.
func regressionWinsLanes(view []float64, prevRecon, regress, from0 float64) bool {
	if regress < from0*0.8 && !math.IsNaN(view[0]-prevRecon) {
		return true
	}
	var lorenzo float64
	prev := prevRecon
	for _, x := range view {
		lorenzo += math.Abs(x - prev)
		prev = x
	}
	return regress < lorenzo*0.8
}

// appendPackedModes appends the 2-bit block modes, four per byte.
func appendPackedModes(dst []byte, modes []byte) []byte {
	for i := 0; i < len(modes); i += 4 {
		var b byte
		for j := 0; j < 4 && i+j < len(modes); j++ {
			b |= (modes[i+j] & 3) << uint(j*2)
		}
		dst = append(dst, b)
	}
	return dst
}
