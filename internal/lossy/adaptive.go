package lossy

import (
	"encoding/binary"
	"fmt"
)

// The "adaptive" compressor is the wire format of frames whose
// sections choose their compressor per tensor: a frame whose header
// records this name carries, in each tensor section, a tiny wrapper
// naming the inner compressor that section was actually encoded with,
// followed by that compressor's ordinary self-describing payload. The
// absolute error bound travels inside the inner payload's container
// header exactly as it does for a static frame, so an adaptive frame
// records a (compressor, bound) pair per section — and any decoder
// that resolves compressors through this registry (core.Decompress,
// the streaming Decoder, the aggregation fold path) decodes adaptive
// frames without modification. Nothing in this module chooses per
// tensor any more; the decoder stays so such frames keep decoding.
//
// It registers as a variant, not a canonical name, so suite sweeps
// over Names() keep iterating only the paper's Table I compressors.

// NameAdaptive is the registry name recorded in the header of frames
// whose sections choose their compressor per tensor.
const NameAdaptive = "adaptive"

// adaptiveMaxName caps the inner-compressor name a wrapper may
// declare, so a forged wrapper cannot force a large allocation.
const adaptiveMaxName = 256

func init() {
	MustRegisterFamilyVariant(Family{Name: NameAdaptive, Bounded: true, New: func() Compressor { return adaptiveCompressor{} }})
}

// WrapAdaptive frames an inner compressor's payload for an adaptive
// section: uvarint(len(name)) | name | payload.
func WrapAdaptive(inner string, payload []byte) []byte {
	out := make([]byte, 0, binary.MaxVarintLen64+len(inner)+len(payload))
	out = binary.AppendUvarint(out, uint64(len(inner)))
	out = append(out, inner...)
	return append(out, payload...)
}

// UnwrapAdaptive reverses WrapAdaptive, returning the inner compressor
// name and its payload. The returned payload aliases buf.
func UnwrapAdaptive(buf []byte) (inner string, payload []byte, err error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || l > adaptiveMaxName || uint64(len(buf)-n) < l {
		return "", nil, fmt.Errorf("%w: adaptive wrapper header", ErrCorrupt)
	}
	inner = string(buf[n : n+int(l)])
	if inner == "" || inner == NameAdaptive {
		// An empty or self-referential inner name is forged; rejecting
		// the latter also makes unbounded recursion impossible.
		return "", nil, fmt.Errorf("%w: adaptive wrapper names %q", ErrCorrupt, inner)
	}
	return inner, buf[n+int(l):], nil
}

// adaptiveCompressor implements Compressor for the wrapper format.
// Compression through the registry name (WithCompressor("adaptive"))
// delegates every tensor to the default inner compressor.
type adaptiveCompressor struct{}

// adaptiveDefaultInner is the inner compressor the wrapper compresses
// with (the paper's winner).
const adaptiveDefaultInner = "sz2"

// Name implements Compressor.
func (adaptiveCompressor) Name() string { return NameAdaptive }

// Compress implements Compressor by delegating to the default inner
// compressor and wrapping its payload.
func (adaptiveCompressor) Compress(data []float32, p Params) ([]byte, error) {
	inner, err := New(adaptiveDefaultInner)
	if err != nil {
		return nil, err
	}
	comp, err := inner.Compress(data, p)
	if err != nil {
		return nil, err
	}
	return WrapAdaptive(adaptiveDefaultInner, comp), nil
}

// Decompress implements Compressor: read the inner name, resolve it
// through the registry, delegate.
func (c adaptiveCompressor) Decompress(buf []byte) ([]float32, error) {
	return c.DecompressInto(nil, buf)
}

// DecompressInto implements IntoDecompressor through the inner compressor.
func (adaptiveCompressor) DecompressInto(dst []float32, buf []byte) ([]float32, error) {
	name, payload, err := UnwrapAdaptive(buf)
	if err != nil {
		return nil, err
	}
	inner, err := New(name)
	if err != nil {
		return nil, fmt.Errorf("%w: adaptive section names unknown compressor %q", ErrCorrupt, name)
	}
	return DecompressInto(inner, dst, payload)
}
