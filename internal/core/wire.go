package core

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"sync"
	"unsafe"
)

// Bulk fixed-width wire I/O: the one place a raw tensor byte moves
// between a typed slice and a stream. The FSD1 state-dict codec
// (serialize.go) and the float64 partial-sum frame (package hier) both
// move their payloads through WireWriter/WireReader. A run whose wire
// byte order is the host's is not converted at all: the writer hands
// the tensor's own storage to the stream and the reader fills the
// destination's storage straight from it. A run in the other order is
// byte-swapped, one element width at a time, through a fixed scratch
// on the way out and in place on the way in. The optional CRC32C is
// folded in a chunk at a time while the chunk is still in cache.

// WireChunk is the size of the staging scratch and of the pieces a
// checksummed or byte-swapped run moves in: large enough that
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

// hostLittle reports whether typed storage holds its elements in
// little-endian byte order.
var hostLittle = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireElem is an element type that moves as a fixed-width run.
type wireElem interface{ float32 | float64 | int64 }

// wireView views v's storage as its bytes, in host order, and returns
// the element width. Only typed storage is ever viewed as bytes, never
// bytes as a wider type, so no access is misaligned on any port.
func wireView[T wireElem](v []T) (b []byte, width int) {
	width = int(unsafe.Sizeof(*new(T)))
	if len(v) == 0 {
		return nil, width
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*width), width
}

// swapCopy stores src into dst with the bytes of each width-byte (4 or
// 8) element reversed; dst and src may be the same slice.
func swapCopy(dst, src []byte, width int) {
	if width == 4 {
		for i := 0; i+4 <= len(src); i += 4 {
			binary.BigEndian.PutUint32(dst[i:i+4], binary.LittleEndian.Uint32(src[i:i+4]))
		}
		return
	}
	for i := 0; i+8 <= len(src); i += 8 {
		binary.BigEndian.PutUint64(dst[i:i+8], binary.LittleEndian.Uint64(src[i:i+8]))
	}
}

// WireWriter stages field bytes, short runs and byte-swapped runs in
// one fixed scratch and hands them to the underlying writer a chunk at
// a time; a long run in host order goes to the writer from its own
// storage. The first write error sticks and turns later calls into
// no-ops; Close reports it. Writers are pooled: steady-state use
// allocates nothing.
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

// writeRun streams v, little- or big-endian as little says. A run in
// host order of at least a chunk goes to the writer from v's own
// storage once the staged bytes ahead of it are flushed (in
// chunk-sized pieces while a CRC is running, so each is summed while
// in cache); a shorter one is staged like any field, so that small
// tensors share a Write. A run in the other order is swapped into the
// scratch a chunk at a time.
func writeRun[T wireElem](ww *WireWriter, v []T, little bool) {
	p, width := wireView(v)
	if little != hostLittle {
		for len(p) > 0 && ww.err == nil {
			room := ww.room(width)
			k := min(len(room), len(p)) / width * width
			swapCopy(room[:k], p[:k], width)
			ww.n += k
			p = p[k:]
		}
		return
	}
	if len(p) < WireChunk {
		ww.Bytes(p)
		return
	}
	ww.flush()
	piece := len(p)
	if ww.crcOn {
		piece = WireChunk
	}
	for len(p) > 0 && ww.err == nil {
		k := min(len(p), piece)
		if ww.crcOn {
			ww.crc = crc32.Update(ww.crc, crcTable, p[:k])
		}
		_, ww.err = ww.w.Write(p[:k])
		p = p[k:]
	}
}

// Float32sLE streams v as little-endian float32 bits.
func (ww *WireWriter) Float32sLE(v []float32) { writeRun(ww, v, true) }

// Float64sBE streams v as big-endian float64 bits.
func (ww *WireWriter) Float64sBE(v []float64) { writeRun(ww, v, false) }

// Int64sLE streams v little-endian.
func (ww *WireWriter) Int64sLE(v []int64) { writeRun(ww, v, true) }

// Int64sBE streams v big-endian.
func (ww *WireWriter) Int64sBE(v []int64) { writeRun(ww, v, false) }

// byteReader is what the streaming readers need from their source:
// buffered byte-at-a-time access for varints plus bulk reads.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// WireReader is the read half: varints and byte fields straight off
// the source, typed runs read into a destination allocated in stages
// (see stageShift), everything folded into an optional running CRC32C.
// Methods return the source's own errors, a short stream as
// io.ErrUnexpectedEOF (Bytes alone reports a field of which not one
// byte was present as io.EOF, for callers at a frame boundary);
// callers add their framing's corruption sentinel and length caps.
type WireReader struct {
	r       byteReader
	crcOn   bool
	crc     uint32
	one     [1]byte // ReadByte CRC scratch, avoids a per-byte allocation
	scratch *[WireChunk]byte
}

var wireScratchPool = sync.Pool{New: func() any { return new([WireChunk]byte) }}

// NewWireReader reads from r. Release returns its scratch (acquired by
// the first Uint64BE or Discard) to the pool.
func NewWireReader(r interface {
	io.Reader
	io.ByteReader
}) *WireReader {
	return &WireReader{r: r}
}

// Release returns the scratch to the pool. The reader stays
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

// fillRun fills dst from the stream, little- or big-endian as little
// says, reading straight into dst's storage. A run in the other order
// is swapped in place a chunk at a time, and a running CRC also takes
// the run a chunk at a time, each while it is in cache. On error dst's
// contents are unspecified.
func fillRun[T wireElem](wr *WireReader, dst []T, little bool) error {
	p, width := wireView(dst)
	swap := little != hostLittle
	piece := len(p)
	if swap || wr.crcOn {
		piece = WireChunk
	}
	for len(p) > 0 {
		k := min(len(p), piece)
		if err := wr.readFull(p[:k]); err != nil {
			return noEOF(err)
		}
		if swap {
			swapCopy(p[:k], p[:k], width)
		}
		p = p[k:]
	}
	return nil
}

// readRun reads n elements into a destination allocated in stages.
func readRun[T wireElem](wr *WireReader, n int, little bool) ([]T, error) {
	_, width := wireView[T](nil)
	return readStaged(n, width, func(dst []T) error { return fillRun(wr, dst, little) })
}

// Bytes returns the next n bytes in a fresh slice.
func (wr *WireReader) Bytes(n int) ([]byte, error) {
	return readStaged(n, 1, wr.readFull)
}

// Float32sLE reads n little-endian float32s.
func (wr *WireReader) Float32sLE(n int) ([]float32, error) {
	return readRun[float32](wr, n, true)
}

// Float32sLEInto fills dst with len(dst) little-endian float32s. The
// caller owns dst and vouches for its length, so nothing is staged; on
// error dst's contents are unspecified (a prefix may hold bytes not yet
// put in host order).
func (wr *WireReader) Float32sLEInto(dst []float32) error {
	return fillRun(wr, dst, true)
}

// Float64sBE reads n big-endian float64s.
func (wr *WireReader) Float64sBE(n int) ([]float64, error) {
	return readRun[float64](wr, n, false)
}

// Float64sBEInto fills dst with len(dst) big-endian float64s, like
// Float32sLEInto.
func (wr *WireReader) Float64sBEInto(dst []float64) error {
	return fillRun(wr, dst, false)
}

// Int64sLE reads n little-endian int64s.
func (wr *WireReader) Int64sLE(n int) ([]int64, error) {
	return readRun[int64](wr, n, true)
}

// Int64sLEInto fills dst with len(dst) little-endian int64s, like
// Float32sLEInto.
func (wr *WireReader) Int64sLEInto(dst []int64) error {
	return fillRun(wr, dst, true)
}

// Int64sBE reads n big-endian int64s.
func (wr *WireReader) Int64sBE(n int) ([]int64, error) {
	return readRun[int64](wr, n, false)
}
