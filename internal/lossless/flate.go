package lossless

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"math"
)

// flateCodec backs the zlib and gzip entries of Table II with the
// standard library's DEFLATE implementation — the same algorithm the
// paper's zlib/gzip used.
type flateCodec struct {
	name string
}

func newFlateCodec(name string) *flateCodec { return &flateCodec{name: name} }

// Name implements Codec.
func (c *flateCodec) Name() string { return c.name }

// Compress implements Codec.
func (c *flateCodec) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	var w io.WriteCloser
	var err error
	switch c.name {
	case NameZlib:
		w, err = zlib.NewWriterLevel(&buf, zlib.DefaultCompression)
	case NameGzip:
		w, err = gzip.NewWriterLevel(&buf, gzip.DefaultCompression)
	default:
		return nil, fmt.Errorf("lossless: bad flate codec %q", c.name)
	}
	if err != nil {
		return nil, fmt.Errorf("lossless: %s writer: %w", c.name, err)
	}
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("lossless: %s write: %w", c.name, err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("lossless: %s close: %w", c.name, err)
	}
	return buf.Bytes(), nil
}

// AppendCompress implements Codec. DEFLATE streams through an internal
// bytes.Buffer, so this append variant costs one copy — acceptable on
// the metadata path these codecs serve.
func (c *flateCodec) AppendCompress(dst, src []byte) ([]byte, error) {
	out, err := c.Compress(src)
	if err != nil {
		return nil, err
	}
	return append(dst, out...), nil
}

// Decompress implements Codec.
func (c *flateCodec) Decompress(src []byte) ([]byte, error) {
	return c.decompressMax(src, math.MaxInt)
}

// decompressMax implements maxDecompressor: DEFLATE declares no output
// length, so the inflated stream is read until it passes max.
func (c *flateCodec) decompressMax(src []byte, max int) ([]byte, error) {
	var r io.ReadCloser
	var err error
	switch c.name {
	case NameZlib:
		r, err = zlib.NewReader(bytes.NewReader(src))
	case NameGzip:
		r, err = gzip.NewReader(bytes.NewReader(src))
	default:
		return nil, fmt.Errorf("lossless: bad flate codec %q", c.name)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, c.name, err)
	}
	defer r.Close()
	out, err := readMax(r, max)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, c.name, err)
	}
	return out, nil
}

// readMax reads r to its end into a buffer that doubles as it fills,
// failing as soon as more than max bytes have arrived: what it allocates
// stays under about twice the smaller of max and the stream's length.
func readMax(r io.Reader, max int) ([]byte, error) {
	buf := make([]byte, 0, min(max, 512)+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > max {
			return nil, fmt.Errorf("output exceeds %d bytes", max)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*cap(buf), max)+1)
			copy(grown, buf)
			buf = grown
		}
	}
}
