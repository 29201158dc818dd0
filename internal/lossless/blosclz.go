package lossless

import (
	"encoding/binary"
	"fmt"
)

// BloscLZ reproduces the two-stage design of c-blosc's blosclz codec: a
// byte-shuffle filter that transposes the bytes of fixed-size elements
// (grouping all exponent bytes of float32 data together, which is what
// makes blosc effective on floating-point arrays) followed by a
// FastLZ-style greedy LZ pass.
type BloscLZ struct {
	elemSize int
}

// NewBloscLZ returns a BloscLZ codec with the given shuffle element
// size (4 for float32 payloads; 1 disables shuffling).
func NewBloscLZ(elemSize int) *BloscLZ {
	if elemSize < 1 {
		elemSize = 1
	}
	return &BloscLZ{elemSize: elemSize}
}

// Name implements Codec.
func (c *BloscLZ) Name() string { return NameBloscLZ }

// Compress implements Codec.
func (c *BloscLZ) Compress(src []byte) ([]byte, error) {
	return c.AppendCompress(make([]byte, 0, len(src)/2+16), src)
}

// AppendCompress implements Codec.
func (c *BloscLZ) AppendCompress(dst, src []byte) ([]byte, error) {
	elem := c.elemSize
	if len(src)%elem != 0 || len(src) < 2*elem {
		elem = 1 // shuffle needs whole elements
	}
	shuffled := shuffle(src, elem)
	out := dst
	out = binary.AppendUvarint(out, uint64(len(src)))
	out = append(out, byte(elem))
	out = lzCompress(out, shuffled, bloscParams)
	return out, nil
}

// bloscParams is blosclz's match finder: one probe into a 14-bit hash
// table over a 64 KiB window.
var bloscParams = lzParams{
	window:   1 << 16,
	hashBits: 14,
	maxDist:  1 << 16,
	dist3:    false,
	depth:    1,
	lazy:     false,
	// Cap the skip stride: after shuffling, a long incompressible
	// mantissa plane precedes the compressible exponent plane, and
	// an unbounded stride would leap over it.
	accelCap: 15,
}

// Decompress implements Codec.
func (c *BloscLZ) Decompress(src []byte) ([]byte, error) {
	origLen, n := binary.Uvarint(src)
	if n <= 0 || len(src) < n+1 {
		return nil, fmt.Errorf("%w: blosclz header", ErrCorrupt)
	}
	elem := int(src[n])
	if elem < 1 {
		return nil, fmt.Errorf("%w: blosclz element size", ErrCorrupt)
	}
	shuffled, err := lzDecompress(nil, src[n+1:], int(origLen), false)
	if err != nil {
		return nil, err
	}
	return unshuffle(shuffled, elem), nil
}

// decompressMax implements maxDecompressor.
func (c *BloscLZ) decompressMax(src []byte, max int) ([]byte, error) {
	if err := declaredWithin(src, max); err != nil {
		return nil, err
	}
	return c.Decompress(src)
}

// shuffle transposes src (viewed as elements of elemSize bytes) so that
// byte k of every element is contiguous.
func shuffle(src []byte, elemSize int) []byte {
	if elemSize <= 1 || len(src)%elemSize != 0 {
		return src
	}
	n := len(src) / elemSize
	out := make([]byte, len(src))
	for k := 0; k < elemSize; k++ {
		base := k * n
		for i := 0; i < n; i++ {
			out[base+i] = src[i*elemSize+k]
		}
	}
	return out
}

// unshuffle reverses shuffle.
func unshuffle(src []byte, elemSize int) []byte {
	if elemSize <= 1 || len(src)%elemSize != 0 {
		return src
	}
	n := len(src) / elemSize
	out := make([]byte, len(src))
	for k := 0; k < elemSize; k++ {
		base := k * n
		for i := 0; i < n; i++ {
			out[i*elemSize+k] = src[base+i]
		}
	}
	return out
}
