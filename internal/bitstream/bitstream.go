// Package bitstream provides MSB-first bit-level readers and writers.
//
// It is the shared bit-I/O layer for the entropy coders (Huffman), the
// ZFP embedded bitplane coder and the SZx truncation coder. Bits are
// packed most-significant-bit first within each byte, which keeps the
// encoded streams byte-order independent and easy to inspect.
//
// # Streaming hot path
//
// Both Reader and Writer run on a 64-bit accumulator with bulk
// refill/flush: the Writer emits whole 8-byte words once the
// accumulator fills, and the Reader loads 8 bytes at a time, so the
// per-bit cost of the entropy stage is a couple of shifts rather than a
// byte-indexed loop. On top of the classic Read/Write calls the Reader
// exposes Peek and Skip, sized for a table-driven decoder: Peek returns
// the next n bits without consuming them (zero-padded past the end of
// the stream) and Skip consumes exactly the bits a matched code used.
// Writers can also be pointed at a caller-owned buffer with ResetBuf.
// The huffman package runs its own word loops over the same bit order
// and checks them against this package's Writer and Reader in its
// tests.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrOverrun is returned by Reader methods when a read extends past the
// end of the underlying buffer.
var ErrOverrun = errors.New("bitstream: read past end of stream")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	base int    // bytes already in buf when writing started (ResetBuf)
	acc  uint64 // pending bits, right-aligned in the low nAcc bits
	nAcc uint   // number of pending bits (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint
// bytes of output.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b), 1)
}

// WriteBits appends the n low-order bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d out of range", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	if w.nAcc+n < 64 {
		w.acc = w.acc<<n | v
		w.nAcc += n
		return
	}
	// The accumulator reaches (or passes) 64 bits: top it up to exactly
	// 64 and flush the full word big-endian, keeping the remainder.
	take := 64 - w.nAcc
	rem := n - take
	full := w.acc<<take | v>>rem
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], full)
	w.buf = append(w.buf, b[:]...)
	if rem == 0 {
		w.acc, w.nAcc = 0, 0
		return
	}
	w.acc = v & (1<<rem - 1)
	w.nAcc = rem
}

// WriteUnary appends v as a unary code: v one-bits followed by a zero.
func (w *Writer) WriteUnary(v uint) {
	for v >= 63 {
		w.WriteBits(1<<63-1, 63)
		v -= 63
	}
	w.WriteBits(1<<(v+1)-2, v+1)
}

// Len returns the number of bits written so far (excluding any prefix
// handed to ResetBuf).
func (w *Writer) Len() int { return (len(w.buf)-w.base)*8 + int(w.nAcc) }

// Bytes flushes the final partial byte (zero-padded) and returns the
// encoded stream. The Writer remains usable; subsequent writes continue
// from the unflushed state, so call Bytes only once, when done.
func (w *Writer) Bytes() []byte {
	out := w.buf
	acc, n := w.acc, w.nAcc
	for n >= 8 {
		n -= 8
		out = append(out, byte(acc>>n))
	}
	if n > 0 {
		out = append(out, byte(acc<<(8-n)))
	}
	return out
}

// Reset clears the writer for reuse, keeping the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.base = 0
	w.acc, w.nAcc = 0, 0
}

// ResetBuf clears the writer and directs subsequent output into buf
// (appending after its current length). Bytes then returns buf extended
// with the stream, which lets callers assemble a bit stream directly
// into a larger frame without an intermediate copy. The Writer keeps no
// reference to its previous buffer.
func (w *Writer) ResetBuf(buf []byte) {
	w.buf = buf
	w.base = len(buf)
	w.acc, w.nAcc = 0, 0
}

// Reader consumes bits MSB-first from a byte slice.
//
// The zero value reads an empty stream; use NewReader or Reset to
// attach a buffer. Reader is a small value type: embedding it avoids an
// allocation per decode.
type Reader struct {
	buf  []byte
	pos  int    // next byte to load into the accumulator
	acc  uint64 // upcoming bits, left-aligned (top nAcc bits valid, rest zero)
	nAcc uint   // valid bits in acc (0..64)
}

// NewReader returns a Reader over buf. The Reader does not copy buf;
// the caller must not mutate it while reading.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset re-points the Reader at buf, rewinding all state.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.acc, r.nAcc = 0, 0
}

// refill tops the accumulator up from the buffer: a single 8-byte load
// when the accumulator is empty and 8 bytes remain, byte-at-a-time
// otherwise. Bits below the valid window stay zero.
func (r *Reader) refill() {
	if r.nAcc == 0 && r.pos+8 <= len(r.buf) {
		r.acc = binary.BigEndian.Uint64(r.buf[r.pos:])
		r.nAcc = 64
		r.pos += 8
		return
	}
	for r.nAcc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nAcc)
		r.nAcc += 8
		r.pos++
	}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nAcc == 0 {
		r.refill()
		if r.nAcc == 0 {
			return 0, ErrOverrun
		}
	}
	b := uint(r.acc >> 63)
	r.acc <<= 1
	r.nAcc--
	return b, nil
}

// ReadBits reads n bits (n in [0,64]) and returns them right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("bitstream: ReadBits n=%d out of range", n)
	}
	if n <= r.nAcc {
		v := r.acc >> (64 - n)
		r.acc <<= n
		r.nAcc -= n
		return v, nil
	}
	var v uint64
	for got := uint(0); got < n; {
		if r.nAcc == 0 {
			r.refill()
			if r.nAcc == 0 {
				return 0, ErrOverrun
			}
		}
		take := n - got
		if take > r.nAcc {
			take = r.nAcc
		}
		v = v<<take | r.acc>>(64-take)
		r.acc <<= take
		r.nAcc -= take
		got += take
	}
	return v, nil
}

// Peek returns the next n bits (n in [0,56]) without consuming them,
// right-aligned. Peeking past the end of the stream is not an error:
// the missing low bits read as zero, which lets a table-driven decoder
// probe a full index width near the tail and validate the matched code
// length against BitsRemaining afterwards.
func (r *Reader) Peek(n uint) uint64 {
	if n > 56 {
		panic(fmt.Sprintf("bitstream: Peek n=%d out of range", n))
	}
	if r.nAcc < n {
		r.refill()
	}
	return r.acc >> (64 - n)
}

// Skip consumes n bits, returning ErrOverrun (with the stream left at
// its end) if fewer remain.
func (r *Reader) Skip(n uint) error {
	if n <= r.nAcc {
		r.acc <<= n
		r.nAcc -= n
		return nil
	}
	n -= r.nAcc
	r.acc, r.nAcc = 0, 0
	if whole := int(n / 8); whole > 0 {
		if whole > len(r.buf)-r.pos {
			r.pos = len(r.buf)
			return ErrOverrun
		}
		r.pos += whole
	}
	if rem := n % 8; rem > 0 {
		r.refill()
		if r.nAcc < rem {
			return ErrOverrun
		}
		r.acc <<= rem
		r.nAcc -= rem
	}
	return nil
}

// ReadUnary reads a unary code written by WriteUnary.
func (r *Reader) ReadUnary() (uint, error) {
	var v uint
	for {
		if r.nAcc == 0 {
			r.refill()
			if r.nAcc == 0 {
				return 0, ErrOverrun
			}
		}
		// Leading ones of acc = leading zeros of ^acc. Bits beyond the
		// valid window are zero in acc, so a window of all ones yields
		// ones >= nAcc and the scan continues into the next refill.
		ones := uint(bits.LeadingZeros64(^r.acc))
		if ones >= r.nAcc {
			v += r.nAcc
			r.acc, r.nAcc = 0, 0
			continue
		}
		v += ones
		r.acc <<= ones + 1
		r.nAcc -= ones + 1
		return v, nil
	}
}

// BitsRemaining reports how many bits are left in the stream.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nAcc)
}
