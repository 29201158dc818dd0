// Package lossless implements the lossless codec suite evaluated in the
// paper (Table II): blosc-lz, zlib, gzip, a zstd-like LZ+Huffman codec
// and an xz-like deep-search variant.
//
// Every codec produces a self-describing buffer (the original length is
// embedded), so Decompress needs no side information. Codecs are
// obtained by name through New, mirroring how the paper's Python
// pipeline selects its lossless backend.
package lossless

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Codec is a lossless byte compressor.
type Codec interface {
	// Name returns the canonical codec name.
	Name() string
	// Compress encodes src into a self-describing buffer.
	Compress(src []byte) ([]byte, error)
	// AppendCompress appends the encoding of src to dst and returns the
	// extended buffer, letting callers assemble frames without an
	// intermediate copy. dst may be nil; the bytes appended are exactly
	// what Compress would return.
	AppendCompress(dst, src []byte) ([]byte, error)
	// Decompress decodes a buffer produced by Compress.
	Decompress(src []byte) ([]byte, error)
}

// AppendDecompressor is implemented by codecs whose Decompress can
// write into a caller-supplied buffer. Callers that decompress
// transient payloads (e.g. the SZ lossless stage) probe for it to
// recycle scratch across calls.
type AppendDecompressor interface {
	// AppendDecompress appends the decoded bytes to dst and returns the
	// extended buffer. dst may be nil.
	AppendDecompress(dst, src []byte) ([]byte, error)
}

// maxDecompressor is implemented by the built-in codecs, which enforce
// DecompressMax's bound before they build the output.
type maxDecompressor interface {
	decompressMax(src []byte, max int) ([]byte, error)
}

// DecompressMax is Decompress for a buffer from an untrusted peer whose
// output must not pass max bytes: one that would decode to more fails
// with ErrCorrupt. The built-in codecs fail before they build the excess
// — blosclz and the LZ+Huffman codecs on the length their header
// declares, zlib and gzip once max+1 bytes have inflated — so a
// decompression bomb costs at most about twice max in allocation. A codec
// registered from outside the package decodes in full and is checked
// afterwards.
func DecompressMax(c Codec, src []byte, max int) ([]byte, error) {
	if md, ok := c.(maxDecompressor); ok {
		return md.decompressMax(src, max)
	}
	out, err := c.Decompress(src)
	if err == nil && len(out) > max {
		return nil, fmt.Errorf("%w: output of %d bytes exceeds %d", ErrCorrupt, len(out), max)
	}
	return out, err
}

// declaredWithin fails a buffer whose uvarint header declares more than
// max output bytes; a header that does not parse is left to the decoder.
func declaredWithin(src []byte, max int) error {
	if n, k := binary.Uvarint(src); k > 0 && n > uint64(max) {
		return fmt.Errorf("%w: declared output of %d bytes exceeds %d", ErrCorrupt, n, max)
	}
	return nil
}

// payloadScratch recycles the transient buffers handed out by
// DecompressTransient.
var payloadScratch = sync.Pool{
	New: func() interface{} { return new([]byte) },
}

// DecompressTransient decompresses src through c, writing into pooled
// scratch when the codec supports append-style decompression — the
// shared unwrap step of the SZ decompressors, whose payloads are fully
// consumed before they return. When the returned scratch handle is
// non-nil, the payload's backing buffer is pooled: pass the handle to
// ReleaseTransient once the payload is no longer referenced.
func DecompressTransient(c Codec, src []byte) (payload []byte, scratch *[]byte, err error) {
	ad, ok := c.(AppendDecompressor)
	if !ok {
		payload, err = c.Decompress(src)
		return payload, nil, err
	}
	psc := payloadScratch.Get().(*[]byte)
	payload, err = ad.AppendDecompress((*psc)[:0], src)
	if err != nil {
		payloadScratch.Put(psc)
		return nil, nil, err
	}
	*psc = payload[:0] // keep the (possibly grown) buffer with the handle
	return payload, psc, nil
}

// ReleaseTransient returns a scratch handle obtained from
// DecompressTransient to the pool.
func ReleaseTransient(scratch *[]byte) { payloadScratch.Put(scratch) }

// ErrCorrupt reports a malformed compressed buffer.
var ErrCorrupt = errors.New("lossless: corrupt compressed buffer")

// Codec names accepted by New.
const (
	NameBloscLZ  = "blosclz"
	NameZlib     = "zlib"
	NameGzip     = "gzip"
	NameZstdLike = "zstdlike"
	NameXzLike   = "xzlike"
)

// The codec registry maps names to constructors. The five built-ins
// register below; downstream code can plug additional lossless codecs
// in through Register, and frames recording the registered name
// decompress through the same lookup.
var (
	registryMu sync.RWMutex
	registry   = map[string]func() Codec{}
)

func init() {
	for name, factory := range map[string]func() Codec{
		NameBloscLZ:  func() Codec { return NewBloscLZ(4) },
		NameZlib:     func() Codec { return newFlateCodec(NameZlib) },
		NameGzip:     func() Codec { return newFlateCodec(NameGzip) },
		NameZstdLike: func() Codec { return NewLZH(ProfileZstd) },
		NameXzLike:   func() Codec { return NewLZH(ProfileXz) },
	} {
		if err := Register(name, factory); err != nil {
			panic(err)
		}
	}
}

// Register makes factory available to New under name. Registering an
// empty name, a nil factory or a name that is already taken is an
// error; a process registers each codec exactly once (typically from
// init).
func Register(name string, factory func() Codec) error {
	if name == "" {
		return fmt.Errorf("lossless: register: empty name")
	}
	if factory == nil {
		return fmt.Errorf("lossless: register %q: nil factory", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("lossless: register %q: already registered", name)
	}
	registry[name] = factory
	return nil
}

// New returns the codec registered under name.
func New(name string) (Codec, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("lossless: unknown codec %q", name)
	}
	return factory(), nil
}

// Names lists the registered codec names in sorted order — for the
// built-ins that is the paper's Table II order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
