package core

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// Bulk fixed-width wire I/O: the one place a raw tensor byte is
// converted between a typed slice and a stream. The FSD1 state-dict
// codec (serialize.go) and the float64 partial-sum frame (package
// hier) both move their payloads through WireWriter/WireReader, so
// each byte is converted once, in a fixed scratch, with the optional
// CRC32C folded in while the chunk is still in cache.

// WireChunk is the size of the conversion scratch: large enough that
// per-chunk costs (a Write call, a CRC update) vanish, small enough to
// stay cache-resident next to a bufio buffer of the same size.
const WireChunk = 64 << 10

// stageShift sets the staged-allocation policy of the typed reads: a
// destination of declared length n is allocated as n>>(4k) for
// descending k, each stage only after the previous one was filled from
// the stream. An honest payload therefore costs at most 16/15 of its
// size in allocation (and a 1/15 copy), while a forged length costs at
// most ~17x the bytes actually received plus one first stage under
// 16 chunks.
const stageShift = 4

// UvarintLen returns the encoded size of v as a uvarint.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// The conversion kernels: len(bytes) == width*len(values), checked by
// the chunk drivers below.

func putFloat32sLE(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:i*4+4], math.Float32bits(v))
	}
}

func putFloat64sBE(dst []byte, src []float64) {
	for i, v := range src {
		binary.BigEndian.PutUint64(dst[i*8:i*8+8], math.Float64bits(v))
	}
}

func putInt64sLE(dst []byte, src []int64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:i*8+8], uint64(v))
	}
}

func putInt64sBE(dst []byte, src []int64) {
	for i, v := range src {
		binary.BigEndian.PutUint64(dst[i*8:i*8+8], uint64(v))
	}
}

func getFloat32sLE(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4 : i*4+4]))
	}
}

func getFloat64sBE(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src[i*8 : i*8+8]))
	}
}

func getInt64sLE(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8 : i*8+8]))
	}
}

func getInt64sBE(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.BigEndian.Uint64(src[i*8 : i*8+8]))
	}
}

// WireWriter stages field bytes and converted tensor data in one fixed
// scratch and hands them to the underlying writer a chunk at a time.
// The first write error sticks and turns later calls into no-ops;
// Close reports it. Writers are pooled: steady-state use allocates
// nothing.
type WireWriter struct {
	w       io.Writer
	n       int // bytes staged in buf
	err     error
	crcOn   bool
	crcFrom int // staged bytes before this offset are already summed (or excluded)
	crc     uint32
	buf     [WireChunk]byte
}

var wireWriterPool = sync.Pool{New: func() any { return new(WireWriter) }}

// NewWireWriter returns a pooled writer onto w. Close releases it.
func NewWireWriter(w io.Writer) *WireWriter {
	ww := wireWriterPool.Get().(*WireWriter)
	ww.w, ww.n, ww.err, ww.crcOn, ww.crcFrom = w, 0, nil, false, 0
	return ww
}

// Close flushes the staged bytes, returns the writer to the pool and
// reports the first error of its lifetime. The writer must not be used
// afterwards.
func (ww *WireWriter) Close() error {
	ww.flush()
	err := ww.err
	ww.w = nil
	wireWriterPool.Put(ww)
	return err
}

// BeginCRC starts a CRC32C over every byte staged from here on.
func (ww *WireWriter) BeginCRC() { ww.crcOn, ww.crc, ww.crcFrom = true, 0, ww.n }

// EndCRC stops the running checksum and returns it.
func (ww *WireWriter) EndCRC() uint32 {
	ww.sum()
	ww.crcOn = false
	return ww.crc
}

func (ww *WireWriter) sum() {
	if ww.crcOn {
		ww.crc = crc32.Update(ww.crc, crcTable, ww.buf[ww.crcFrom:ww.n])
		ww.crcFrom = ww.n
	}
}

func (ww *WireWriter) flush() {
	ww.sum()
	if ww.err == nil && ww.n > 0 {
		_, ww.err = ww.w.Write(ww.buf[:ww.n])
	}
	ww.n, ww.crcFrom = 0, 0
}

// room returns the free tail of the scratch, at least need bytes long.
func (ww *WireWriter) room(need int) []byte {
	if WireChunk-ww.n < need {
		ww.flush()
	}
	return ww.buf[ww.n:]
}

// Bytes stages p.
func (ww *WireWriter) Bytes(p []byte) {
	for len(p) > 0 {
		k := copy(ww.room(1), p)
		ww.n += k
		p = p[k:]
	}
}

// String stages s.
func (ww *WireWriter) String(s string) {
	for len(s) > 0 {
		k := copy(ww.room(1), s)
		ww.n += k
		s = s[k:]
	}
}

// Byte stages one byte.
func (ww *WireWriter) Byte(b byte) {
	ww.room(1)[0] = b
	ww.n++
}

// Uvarint stages v as a uvarint.
func (ww *WireWriter) Uvarint(v uint64) {
	ww.n += binary.PutUvarint(ww.room(binary.MaxVarintLen64), v)
}

// Uint32BE stages v big-endian.
func (ww *WireWriter) Uint32BE(v uint32) {
	binary.BigEndian.PutUint32(ww.room(4), v)
	ww.n += 4
}

// Uint64BE stages v big-endian.
func (ww *WireWriter) Uint64BE(v uint64) {
	binary.BigEndian.PutUint64(ww.room(8), v)
	ww.n += 8
}

// writeChunked converts v through the scratch, width bytes per element.
func writeChunked[T any](ww *WireWriter, v []T, width int, put func(dst []byte, src []T)) {
	for len(v) > 0 && ww.err == nil {
		k := min(len(ww.room(width))/width, len(v))
		put(ww.buf[ww.n:ww.n+k*width], v[:k])
		ww.n += k * width
		v = v[k:]
	}
}

// Float32sLE streams v as little-endian float32 bits.
func (ww *WireWriter) Float32sLE(v []float32) { writeChunked(ww, v, 4, putFloat32sLE) }

// Float64sBE streams v as big-endian float64 bits.
func (ww *WireWriter) Float64sBE(v []float64) { writeChunked(ww, v, 8, putFloat64sBE) }

// Int64sLE streams v little-endian.
func (ww *WireWriter) Int64sLE(v []int64) { writeChunked(ww, v, 8, putInt64sLE) }

// Int64sBE streams v big-endian.
func (ww *WireWriter) Int64sBE(v []int64) { writeChunked(ww, v, 8, putInt64sBE) }

// byteReader is what the streaming readers need from their source:
// buffered byte-at-a-time access for varints plus bulk reads.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// WireReader is the read half: varints and byte fields straight off
// the source, typed runs converted chunk by chunk into a destination
// allocated in stages (see stageShift), everything folded into an
// optional running CRC32C. Methods return the source's own errors, a
// short stream as io.ErrUnexpectedEOF (Bytes alone reports a field of
// which not one byte was present as io.EOF, for callers at a frame
// boundary); callers add their framing's corruption sentinel and
// length caps.
type WireReader struct {
	r       byteReader
	crcOn   bool
	crc     uint32
	one     [1]byte // ReadByte CRC scratch, avoids a per-byte allocation
	scratch *[WireChunk]byte
}

var wireScratchPool = sync.Pool{New: func() any { return new([WireChunk]byte) }}

// NewWireReader reads from r. Release returns its scratch (acquired on
// the first typed read) to the pool.
func NewWireReader(r interface {
	io.Reader
	io.ByteReader
}) *WireReader {
	return &WireReader{r: r}
}

// Release returns the conversion scratch to the pool. The reader stays
// usable; decoded slices never alias the scratch.
func (wr *WireReader) Release() {
	if wr.scratch != nil {
		wireScratchPool.Put(wr.scratch)
		wr.scratch = nil
	}
}

// BeginCRC starts a CRC32C over every byte read from here on.
func (wr *WireReader) BeginCRC() { wr.crcOn, wr.crc = true, 0 }

// EndCRC stops the running checksum and returns it.
func (wr *WireReader) EndCRC() uint32 {
	wr.crcOn = false
	return wr.crc
}

// ReadByte serves varint reads while folding each byte into the
// running checksum, so binary.ReadUvarint is handed the reader itself
// rather than the raw source.
func (wr *WireReader) ReadByte() (byte, error) {
	b, err := wr.r.ReadByte()
	if err == nil && wr.crcOn {
		wr.one[0] = b
		wr.crc = crc32.Update(wr.crc, crcTable, wr.one[:])
	}
	return b, err
}

// Uvarint reads one uvarint.
func (wr *WireReader) Uvarint() (uint64, error) { return binary.ReadUvarint(wr) }

// Uint64BE reads one big-endian uint64.
func (wr *WireReader) Uint64BE() (uint64, error) {
	b := wr.buf()[:8]
	if err := wr.readFull(b); err != nil {
		return 0, noEOF(err)
	}
	return binary.BigEndian.Uint64(b), nil
}

// readFull fills p and sums it.
func (wr *WireReader) readFull(p []byte) error {
	if _, err := io.ReadFull(wr.r, p); err != nil {
		return err
	}
	if wr.crcOn {
		wr.crc = crc32.Update(wr.crc, crcTable, p)
	}
	return nil
}

// Discard reads and sums n bytes without keeping them.
func (wr *WireReader) Discard(n uint64) error {
	for n > 0 {
		k := min(n, WireChunk)
		if err := wr.readFull(wr.buf()[:k]); err != nil {
			return noEOF(err)
		}
		n -= k
	}
	return nil
}

func (wr *WireReader) buf() *[WireChunk]byte {
	if wr.scratch == nil {
		wr.scratch = wireScratchPool.Get().(*[WireChunk]byte)
	}
	return wr.scratch
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readStaged fills a fresh []T of n elements (width bytes each on the
// wire) through fill, which is handed each newly allocated tail in
// turn.
func readStaged[T any](n, width int, fill func(dst []T) error) ([]T, error) {
	k := 0
	for (n>>(stageShift*(k+1)))*width >= WireChunk {
		k++
	}
	var dst []T
	for ; k >= 0; k-- {
		grown := make([]T, n>>(stageShift*k))
		have := copy(grown, dst)
		if err := fill(grown[have:]); err != nil {
			if have > 0 {
				err = noEOF(err)
			}
			return nil, err
		}
		dst = grown
	}
	return dst, nil
}

// fillChunked fills dst from the stream, width wire bytes per element,
// through the scratch.
func fillChunked[T any](wr *WireReader, dst []T, width int, get func(dst []T, src []byte)) error {
	buf := wr.buf()
	for len(dst) > 0 {
		k := min(len(dst), WireChunk/width)
		if err := wr.readFull(buf[:k*width]); err != nil {
			return noEOF(err)
		}
		get(dst[:k], buf[:k*width])
		dst = dst[k:]
	}
	return nil
}

// readChunked reads n elements of width wire bytes into a destination
// allocated in stages.
func readChunked[T any](wr *WireReader, n, width int, get func(dst []T, src []byte)) ([]T, error) {
	return readStaged(n, width, func(dst []T) error { return fillChunked(wr, dst, width, get) })
}

// Bytes returns the next n bytes in a fresh slice.
func (wr *WireReader) Bytes(n int) ([]byte, error) {
	return readStaged(n, 1, wr.readFull)
}

// Float32sLE reads n little-endian float32s.
func (wr *WireReader) Float32sLE(n int) ([]float32, error) {
	return readChunked(wr, n, 4, getFloat32sLE)
}

// Float32sLEInto fills dst with len(dst) little-endian float32s. The
// caller owns dst and vouches for its length, so nothing is staged; on
// error dst holds whatever prefix arrived.
func (wr *WireReader) Float32sLEInto(dst []float32) error {
	return fillChunked(wr, dst, 4, getFloat32sLE)
}

// Float64sBE reads n big-endian float64s.
func (wr *WireReader) Float64sBE(n int) ([]float64, error) {
	return readChunked(wr, n, 8, getFloat64sBE)
}

// Float64sBEInto fills dst with len(dst) big-endian float64s, like
// Float32sLEInto.
func (wr *WireReader) Float64sBEInto(dst []float64) error {
	return fillChunked(wr, dst, 8, getFloat64sBE)
}

// Int64sLE reads n little-endian int64s.
func (wr *WireReader) Int64sLE(n int) ([]int64, error) {
	return readChunked(wr, n, 8, getInt64sLE)
}

// Int64sLEInto fills dst with len(dst) little-endian int64s, like
// Float32sLEInto.
func (wr *WireReader) Int64sLEInto(dst []int64) error {
	return fillChunked(wr, dst, 8, getInt64sLE)
}

// Int64sBE reads n big-endian int64s.
func (wr *WireReader) Int64sBE(n int) ([]int64, error) {
	return readChunked(wr, n, 8, getInt64sBE)
}
