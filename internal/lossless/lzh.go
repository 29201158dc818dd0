package lossless

import (
	"encoding/binary"
	"fmt"
	"sync"

	"fedsz/internal/huffman"
)

// LZHProfile selects the effort/window trade-off of the LZH codec.
type LZHProfile int

const (
	// ProfileZstd approximates zstd's default profile: a large window
	// with moderate-depth lazy matching and an entropy stage.
	ProfileZstd LZHProfile = iota + 1
	// ProfileXz approximates xz's profile: a very large window with a
	// deep (slow) match search — best ratio, worst runtime, mirroring
	// xz's Table II position.
	ProfileXz
)

// tokenPool recycles the LZ token scratch shared by the LZH encode and
// decode paths — one byte-ish per input byte, the stage's largest
// transient buffer.
var tokenPool = sync.Pool{
	New: func() interface{} { return new([]byte) },
}

// LZH is an LZ77 + canonical-Huffman codec. Two profiles stand in for
// zstd and xz (README, "Reproducing the paper").
type LZH struct {
	profile LZHProfile
	params  lzParams
}

// NewLZH returns an LZH codec with the given profile.
func NewLZH(profile LZHProfile) *LZH {
	p := lzParams{maxDist: 1 << 24, dist3: true, hashBits: 16, lazy: true}
	switch profile {
	case ProfileXz:
		p.window = 1 << 23
		p.depth = 128
		p.noAccel = true
	default:
		p.window = 1 << 20
		p.depth = 16
	}
	return &LZH{profile: profile, params: p}
}

// Name implements Codec.
func (c *LZH) Name() string {
	if c.profile == ProfileXz {
		return NameXzLike
	}
	return NameZstdLike
}

// Compress implements Codec.
func (c *LZH) Compress(src []byte) ([]byte, error) {
	return c.AppendCompress(make([]byte, 0, len(src)/2+16), src)
}

// AppendCompress implements Codec. The LZ token stream goes straight
// from pooled scratch into the Huffman append encoder, so the only
// buffer growing is dst itself.
func (c *LZH) AppendCompress(dst, src []byte) ([]byte, error) {
	sc := tokenPool.Get().(*[]byte)
	tokens := lzCompress((*sc)[:0], src, c.params)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	dst = huffman.AppendEncodeBytes(dst, tokens)
	*sc = tokens[:0]
	tokenPool.Put(sc)
	return dst, nil
}

// Decompress implements Codec.
func (c *LZH) Decompress(src []byte) ([]byte, error) {
	return c.AppendDecompress(nil, src)
}

// decompressMax implements maxDecompressor.
func (c *LZH) decompressMax(src []byte, max int) ([]byte, error) {
	if err := declaredWithin(src, max); err != nil {
		return nil, err
	}
	return c.Decompress(src)
}

// AppendDecompress implements AppendDecompressor: the entropy stage
// streams tokens into pooled scratch and the LZ expansion appends
// directly to dst, so the call allocates nothing beyond dst's growth.
func (c *LZH) AppendDecompress(dst, src []byte) ([]byte, error) {
	origLen, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: %s header", ErrCorrupt, c.Name())
	}
	d := huffman.AcquireDecoder()
	defer d.Release()
	if err := d.Open(src[n:]); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, c.Name(), err)
	}
	sc := tokenPool.Get().(*[]byte)
	defer func() {
		tokenPool.Put(sc)
	}()
	tokens, err := d.DecodeAllBytes((*sc)[:0])
	*sc = tokens[:0]
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, c.Name(), err)
	}
	return lzDecompress(dst, tokens, int(origLen), c.params.dist3)
}
