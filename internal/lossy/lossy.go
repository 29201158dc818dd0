// Package lossy defines the common contract implemented by the four
// error-bounded lossy compressors (SZ2, SZ3, SZx, ZFP) and the helpers
// they share: error-bound modes, absolute-bound resolution and the
// self-describing container header.
//
// The container header mirrors the SZ C API's behaviour: a compressed
// buffer carries everything needed to decompress it (element count and
// the absolute bound that was applied), so Decompress requires no side
// information.
package lossy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fedsz/internal/stats"
)

// Mode selects how Params.Bound is interpreted.
type Mode int

const (
	// Abs treats Bound as an absolute error bound ε: |x-x̂| ≤ ε.
	Abs Mode = iota + 1
	// Rel treats Bound as a value-range-relative bound:
	// ε = Bound × (max(x) − min(x)). This is the mode the paper uses
	// throughout (REL error bounds 1e-5 … 1e-1).
	Rel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Abs:
		return "ABS"
	case Rel:
		return "REL"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Params configures a compression call.
type Params struct {
	Mode  Mode
	Bound float64
}

// RelBound is shorthand for Params{Mode: Rel, Bound: b}.
func RelBound(b float64) Params { return Params{Mode: Rel, Bound: b} }

// AbsBound is shorthand for Params{Mode: Abs, Bound: b}.
func AbsBound(b float64) Params { return Params{Mode: Abs, Bound: b} }

// ErrInvalidParams reports a non-positive or missing error bound.
var ErrInvalidParams = errors.New("lossy: invalid compression parameters")

// Resolve converts the parameters into the absolute bound to apply to
// data. For Rel mode, degenerate (constant) data resolves to a small
// positive bound so that compression still succeeds.
//
// The result is always positive, with a finite quantizer step 2ε, so a
// codec never writes a bound its own decoder rejects. A Rel bound over
// a range holding ±Inf is therefore ErrInvalidParams. A NaN has no
// place in a range: the Rel range is taken over the other values
// wherever the NaN sits, and codecs store it verbatim; an all-NaN
// tensor has no range and is ErrInvalidParams.
func (p Params) Resolve(data []float32) (float64, error) {
	if p.Bound <= 0 || math.IsNaN(p.Bound) || math.IsInf(p.Bound, 0) {
		return 0, fmt.Errorf("%w: bound %v", ErrInvalidParams, p.Bound)
	}
	var eb float64
	switch p.Mode {
	case Abs:
		eb = p.Bound
	case Rel:
		mn, mx := stats.MinMaxF32(data)
		r := float64(mx) - float64(mn)
		switch {
		case math.IsNaN(r) || math.IsInf(r, 0):
			return 0, fmt.Errorf("%w: REL bound over the non-finite value range [%v, %v]", ErrInvalidParams, mn, mx)
		case r <= 0:
			// Constant input: any positive bound preserves it; pick one
			// proportional to magnitude so the header stays meaningful.
			mag := math.Abs(float64(mn))
			if mag == 0 {
				mag = 1
			}
			eb = p.Bound * mag
		default:
			eb = p.Bound * r
		}
	default:
		return 0, fmt.Errorf("%w: mode %v", ErrInvalidParams, p.Mode)
	}
	if !validBound(eb) {
		return 0, fmt.Errorf("%w: %v bound %v resolves to %v", ErrInvalidParams, p.Mode, p.Bound, eb)
	}
	return eb, nil
}

// validBound reports whether eb is a bound Resolve may return: positive,
// with the quantizer step 2·eb finite (NaN fails both).
func validBound(eb float64) bool { return eb > 0 && eb <= math.MaxFloat64/2 }

// Compressor is an error-bounded lossy compressor for 1-D float32 data
// (FL model parameters are flattened to 1-D before compression, paper
// §V-D3).
type Compressor interface {
	// Name returns the canonical compressor name ("sz2", "sz3", "szx",
	// "zfp").
	Name() string
	// Compress encodes data under the given error-bound parameters.
	Compress(data []float32, p Params) ([]byte, error)
	// Decompress decodes a buffer produced by Compress.
	Decompress(buf []byte) ([]float32, error)
}

// IntoDecompressor is the optional contract of a compressor that can
// reconstruct into storage the caller already holds (the streaming fold
// path lends its output, so it need not allocate it).
type IntoDecompressor interface {
	// DecompressInto decodes buf exactly as Decompress does, into dst's
	// storage when its capacity suffices and into a fresh slice
	// otherwise. dst's length and contents never show in the output.
	DecompressInto(dst []float32, buf []byte) ([]float32, error)
}

// DecompressInto is c.DecompressInto when c offers it, else c.Decompress.
func DecompressInto(c Compressor, dst []float32, buf []byte) ([]float32, error) {
	if into, ok := c.(IntoDecompressor); ok {
		return into.DecompressInto(dst, buf)
	}
	return c.Decompress(buf)
}

// Sized returns n elements of dst's storage, or of a fresh slice when
// dst's capacity is short, for a DecompressInto to overwrite.
func Sized(dst []float32, n int) []float32 {
	if cap(dst) < n {
		return make([]float32, n)
	}
	return dst[:n]
}

// Container header: magic(4) | version(1) | count(varint) | absBound(8).
const (
	headerVersion = 1
	magicLen      = 4

	// maxCount bounds the element count a header may declare (2^40
	// float32s = 4 TiB — far beyond any model update; where int is 32
	// bits, MaxInt/8) so untrusted headers cannot drive integer
	// overflow in downstream size arithmetic, such as a block count's
	// count+BlockSize−1 or a byte size's count·8.
	maxCount = min(1<<40, math.MaxInt/8)
)

// ErrCorrupt reports a malformed compressed buffer.
var ErrCorrupt = errors.New("lossy: corrupt compressed buffer")

// MaxHeaderLen bounds the encoded size of the container header —
// useful for pre-sizing output buffers before AppendHeader.
const MaxHeaderLen = magicLen + 1 + 10 + 8

// WriteHeader prepends the standard container header for the given
// magic (exactly 4 bytes), element count and absolute bound.
func WriteHeader(magic string, count int, absBound float64) []byte {
	return AppendHeader(make([]byte, 0, MaxHeaderLen), magic, count, absBound)
}

// AppendHeader appends the standard container header to dst, letting
// compressors assemble header and payload in one pre-sized buffer.
func AppendHeader(dst []byte, magic string, count int, absBound float64) []byte {
	if len(magic) != magicLen {
		panic("lossy: magic must be 4 bytes")
	}
	dst = append(dst, magic...)
	dst = append(dst, headerVersion)
	dst = binary.AppendUvarint(dst, uint64(count))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(absBound))
	return dst
}

// ReadHeader validates and strips the container header, returning the
// element count, absolute bound and remaining payload.
func ReadHeader(magic string, buf []byte) (count int, absBound float64, rest []byte, err error) {
	if len(buf) < magicLen+1 || string(buf[:magicLen]) != magic {
		return 0, 0, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if buf[magicLen] != headerVersion {
		return 0, 0, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, buf[magicLen])
	}
	buf = buf[magicLen+1:]
	c, n := binary.Uvarint(buf)
	if n <= 0 || len(buf) < n+8 {
		return 0, 0, nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	// The count drives output allocations in every decompressor; cap it
	// so a forged header can neither overflow int nor size a giant
	// allocation before the per-codec structural checks run.
	if c > maxCount {
		return 0, 0, nil, fmt.Errorf("%w: element count %d", ErrCorrupt, c)
	}
	absBound = math.Float64frombits(binary.LittleEndian.Uint64(buf[n : n+8]))
	// Resolve never produces a non-positive bound or one whose step
	// overflows, so a header carrying one is forged; downstream
	// quantizers are entitled to panic on such bounds, so reject here.
	if !validBound(absBound) {
		return 0, 0, nil, fmt.Errorf("%w: bound %v", ErrCorrupt, absBound)
	}
	return int(c), absBound, buf[n+8:], nil
}

// MaxAbsError returns the maximum absolute elementwise difference
// between a and b; used by tests and the experiment harness to verify
// bounds.
func MaxAbsError(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}
