// Package hier is the hierarchical edge-aggregation subsystem: the
// pieces that let intermediate nodes fold their region's client
// uplinks through the streaming sharded orchestrator.Aggregator and
// forward ONE partial sum upstream, so a coordinator's fan-in is the
// number of regions, not the number of clients.
//
// The subsystem leans on the unnormalized-sum/total FedAvg arithmetic
// of package orchestrator: a region's partial state is Σ wᵢ·updateᵢ
// plus Σ wᵢ, which composes exactly — the raw float64 sum bits travel
// upstream (MsgPartialSum), the upstream fold adds them verbatim, and
// integer sample-count weights sum exactly in float64. A 2-tier
// aggregation therefore commits the same global model as a flat one
// (byte-identical after the float32 projection; see the equivalence
// tests).
//
// This file defines the MsgPartialSum wire format:
//
//	u8      flags (bit0: CRC32C trailer, bit1: lossless-packed body)
//	[flags bit1] uvarint len + lossless codec name
//	uvarint wire body length
//	body    (lossless-compressed when packed)
//	[flags bit0] u32 BE CRC32C over the wire body bytes
//
// and the body, all integers big-endian:
//
//	uvarint updates (client-level contributions)
//	u64     totalWeight (float64 bits)
//	uvarint entry count
//	per entry: uvarint len + name, u8 dtype,
//	           Float32: uvarint ndim + uvarint dims…, raw u64 sums
//	           Int64:   uvarint n, u64 values
//	uvarint prior length + prior blob (Partial.Prior; empty from this module)
//	[optional] uvarint span length + span-summary blob (package obs)
//
// The span-summary tail is the cross-tier tracing hook: encoders that
// trace append it after the prior, decoders that predate it stop at
// the prior and ignore the tail (the parser never required the body to
// be exhausted; unknown trailing bytes are summed and skipped), and new
// decoders treat a body that ends at the prior as "no span" — so
// mixed-version tiers interoperate in both directions.
//
// Neither end materializes a raw frame. The encoder knows the body
// length from the entries up front, so it writes flags and length and
// then streams every entry through one fixed scratch (core.WireWriter):
// each sum is converted once, the CRC32C is folded in per chunk, and
// the first entries are on the wire while later ones convert. The
// decoder reads the body in chunks straight into each entry's storage
// (core.WireReader) — the receiver's own, when it hands in a partial of
// the same layout (DecodePartialInto) — allocating what a declared
// length asks for only in stages as the bytes actually arrive. The trailer is verified when
// the declared body is exhausted and BEFORE the partial is returned,
// so nothing of a corrupt region frame is ever handed to an aggregator:
// it quarantines via the typed drop path without touching the sums.
// Raw float64 bits — never a lossy re-encode — keep the tier byte-exact;
// the optional lossless packing (whose body does pass through one
// exactly-sized buffer on each side) recovers most of the
// float32→float64 inflation on the contended WAN hop without breaking
// exactness.
package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"fedsz/internal/core"
	"fedsz/internal/lossless"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// Wire-format limits and flags.
const (
	flagChecksum = 1 << 0
	flagPacked   = 1 << 1

	// MaxPartialSize bounds a partial-sum body (1 GiB) — both the wire
	// bytes and the unpacked output of a packed frame — to fail fast on
	// corruption.
	MaxPartialSize = 1 << 30

	// maxRank caps a Float32 entry's declared rank.
	maxRank = 16
)

// maxPartialSize is MaxPartialSize as a variable so tests can lower
// the limit without gigabyte allocations.
var maxPartialSize uint64 = MaxPartialSize

// ErrCorruptPartial reports a partial-sum frame whose trailer or
// structure failed verification. It wraps core.ErrCorrupt so the
// transport's drop classifier files it as DropCorrupt.
var ErrCorruptPartial = fmt.Errorf("hier: corrupt partial-sum frame: %w", core.ErrCorrupt)

// WireOptions shape an encoded partial-sum frame.
type WireOptions struct {
	// Checksum appends a CRC32C (Castagnoli, as in core's checked update
	// frames) trailer verified before any fold.
	Checksum bool
	// Lossless names a registered lossless codec to pack the body
	// through ("" = raw). Packing is byte-exact: the float64 sums
	// decompress bit-identical.
	Lossless string
}

// Reader is the stream interface DecodePartialFrom needs; both
// bufio.Reader (the transport's connection reader) and bytes.Reader
// satisfy it.
type Reader interface {
	io.Reader
	io.ByteReader
}

// frameSize returns the wire length of a frame around a wire body of
// bodyLen bytes.
func frameSize(bodyLen uint64, llName string, checksum bool) int64 {
	n := 1 + int64(core.UvarintLen(bodyLen)) + int64(bodyLen)
	if llName != "" {
		n += int64(core.UvarintLen(uint64(len(llName))) + len(llName))
	}
	if checksum {
		n += 4
	}
	return n
}

// bodySize returns the exact encoded length of p's uncompressed body.
func bodySize(p *orchestrator.Partial) int {
	n := core.UvarintLen(uint64(p.Updates)) + 8 + core.UvarintLen(uint64(len(p.Entries)))
	for _, e := range p.Entries {
		n += core.UvarintLen(uint64(len(e.Name))) + len(e.Name) + 1
		if e.DType == model.Int64 {
			n += core.UvarintLen(uint64(len(e.Ints))) + 8*len(e.Ints)
			continue
		}
		n += core.UvarintLen(uint64(len(e.Shape)))
		for _, d := range e.Shape {
			n += core.UvarintLen(uint64(d))
		}
		n += 8 * len(e.Sums)
	}
	n += core.UvarintLen(uint64(len(p.Prior))) + len(p.Prior)
	if len(p.Span) > 0 {
		n += core.UvarintLen(uint64(len(p.Span))) + len(p.Span)
	}
	return n
}

// writeBody streams p's uncompressed body through ww: the sums go out
// big-endian, byte-swapped through ww's scratch on a little-endian
// host.
func writeBody(ww *core.WireWriter, p *orchestrator.Partial) {
	ww.Uvarint(uint64(p.Updates))
	ww.Uint64BE(math.Float64bits(p.TotalWeight))
	ww.Uvarint(uint64(len(p.Entries)))
	for _, e := range p.Entries {
		ww.Uvarint(uint64(len(e.Name)))
		ww.String(e.Name)
		ww.Byte(byte(e.DType))
		if e.DType == model.Int64 {
			ww.Uvarint(uint64(len(e.Ints)))
			ww.Int64sBE(e.Ints)
			continue
		}
		ww.Uvarint(uint64(len(e.Shape)))
		for _, d := range e.Shape {
			ww.Uvarint(uint64(d))
		}
		ww.Float64sBE(e.Sums)
	}
	ww.Uvarint(uint64(len(p.Prior)))
	ww.Bytes(p.Prior)
	if len(p.Span) > 0 {
		// Optional tail: pre-tracing decoders stop at the prior and
		// never see it; omitting it entirely (rather than writing a zero
		// length) keeps untraced frames byte-identical to old encoders.
		ww.Uvarint(uint64(len(p.Span)))
		ww.Bytes(p.Span)
	}
}

// EncodePartial renders p as a self-delimiting MsgPartialSum frame:
// EncodePartialTo into a buffer of exactly the frame's length.
func EncodePartial(p *orchestrator.Partial, opts WireOptions) ([]byte, error) {
	var size int64 // a packed frame's length is only known once compressed
	if opts.Lossless == "" {
		size = frameSize(uint64(bodySize(p)), "", opts.Checksum)
	}
	out := bytes.NewBuffer(make([]byte, 0, size))
	if err := EncodePartialTo(out, p, opts); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// EncodePartialTo streams the frame to w. A raw frame's length is
// known from the entries up front, so flags and length go out first
// and every entry follows through one fixed scratch — the first sums
// are on the wire while later ones convert, with the CRC32C folded in
// per chunk and the trailer last. A packed frame builds its body the
// same way into an exactly-sized buffer, compresses it, and streams
// the result.
func EncodePartialTo(w io.Writer, p *orchestrator.Partial, opts WireOptions) error {
	flags := byte(0)
	if opts.Checksum {
		flags |= flagChecksum
	}
	var packed []byte
	if opts.Lossless != "" {
		c, err := lossless.New(opts.Lossless)
		if err != nil {
			return fmt.Errorf("hier: pack partial: %w", err)
		}
		body := bytes.NewBuffer(make([]byte, 0, bodySize(p)))
		bw := core.NewWireWriter(body)
		writeBody(bw, p)
		_ = bw.Close() // a bytes.Buffer never fails a write
		if packed, err = c.Compress(body.Bytes()); err != nil {
			return fmt.Errorf("hier: pack partial: %w", err)
		}
		flags |= flagPacked
	}

	wireBody := uint64(len(packed))
	if flags&flagPacked == 0 {
		wireBody = uint64(bodySize(p))
	}
	ww := core.NewWireWriter(w)
	ww.Byte(flags)
	if flags&flagPacked != 0 {
		ww.Uvarint(uint64(len(opts.Lossless)))
		ww.String(opts.Lossless)
	}
	ww.Uvarint(wireBody)
	if opts.Checksum {
		ww.BeginCRC()
	}
	if flags&flagPacked != 0 {
		ww.Bytes(packed)
	} else {
		writeBody(ww, p)
	}
	if opts.Checksum {
		ww.Uint32BE(ww.EndCRC())
	}
	if err := ww.Close(); err != nil {
		return fmt.Errorf("hier: write partial: %w", err)
	}
	obsPartialsEnc.Inc()
	obsPartialBytesEnc.Add(frameSize(wireBody, opts.Lossless, opts.Checksum))
	obsPartialUpdatesEnc.Add(int64(p.Updates))
	return nil
}

// DecodePartialFrom reads one MsgPartialSum frame off r. A raw frame is
// decoded as it arrives — each chunk summed into the running CRC32C
// and converted straight into its entry's storage — and the trailer is
// verified once the declared body is exhausted, BEFORE the partial is
// returned: a damaged region frame is rejected wholesale, nothing of
// it reaches an aggregator. Every allocation a declared length drives
// is staged against the bytes actually received.
func DecodePartialFrom(r Reader) (*orchestrator.Partial, error) {
	return DecodePartialInto(r, nil)
}

// DecodePartialInto is DecodePartialFrom for a receiver that holds a
// partial of the expected shape — the one it decoded last round. Entry
// i's sums land in dst.Entries[i].Sums when the two agree on name, dtype
// and shape: they convert straight into that storage, with no staged
// growth, and the returned entry aliases it. Any other entry is
// allocated exactly as DecodePartialFrom would and leaves dst's entry
// untouched, so a nil, shorter, longer or differently shaped dst only
// costs allocation. The returned partial, its Entries slice, its Prior
// and its Span are always new: what outlives the sums never aliases dst.
// The decoded values are those DecodePartialFrom yields for the same
// bytes, and it fails exactly when DecodePartialFrom does; on error, or
// on a frame the checksum rejects, dst's matching sums hold
// unspecified values — on a little-endian host a run cut short may
// still be big-endian.
func DecodePartialInto(r Reader, dst *orchestrator.Partial) (*orchestrator.Partial, error) {
	p, err := decodePartial(r, dst)
	if err != nil {
		if errors.Is(err, ErrCorruptPartial) {
			obsPartialCorrupt.Inc()
		}
		return nil, err
	}
	obsPartialsDec.Inc()
	obsPartialUpdatesDec.Add(int64(p.Updates))
	return p, nil
}

func decodePartial(r Reader, dst *orchestrator.Partial) (*orchestrator.Partial, error) {
	flags, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("hier: read partial flags: %w", err)
	}
	if flags&^(flagChecksum|flagPacked) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorruptPartial, flags)
	}
	llName := ""
	if flags&flagPacked != 0 {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > 256 {
			return nil, fmt.Errorf("%w: lossless name", ErrCorruptPartial)
		}
		name := make([]byte, n)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("hier: read partial codec: %w", err)
		}
		llName = string(name)
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("hier: read partial length: %w", err)
	}
	if size > maxPartialSize {
		return nil, fmt.Errorf("%w: body size %d", ErrCorruptPartial, size)
	}
	checksum := flags&flagChecksum != 0
	obsPartialBytesDec.Add(frameSize(size, llName, checksum))

	body := &bodyReader{r: r, n: size}
	wr := core.NewWireReader(body)
	defer wr.Release()
	if checksum {
		wr.BeginCRC()
	}
	var p *orchestrator.Partial
	var wire []byte
	if llName == "" {
		if p, err = parseBody(wr, body, dst); err == nil {
			// Bytes past the last field this version knows belong to a
			// newer encoder's tail; they are summed, never parsed.
			err = wr.Discard(body.n)
		}
	} else {
		wire, err = wr.Bytes(int(size))
	}
	if err != nil {
		if body.err == io.EOF {
			// The source ended inside the declared body: a truncated stream.
			body.err = io.ErrUnexpectedEOF
		}
		if body.err != nil {
			return nil, fmt.Errorf("hier: read partial body: %w", body.err)
		}
		return nil, err
	}
	if checksum {
		var raw [4]byte
		if _, err := io.ReadFull(r, raw[:]); err != nil {
			return nil, fmt.Errorf("hier: read partial trailer: %w", err)
		}
		if binary.BigEndian.Uint32(raw[:]) != wr.EndCRC() {
			return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptPartial)
		}
	}
	if llName == "" {
		return p, nil
	}

	c, err := lossless.New(llName)
	if err != nil {
		return nil, fmt.Errorf("%w: codec %q", ErrCorruptPartial, llName)
	}
	// The size cap applies to the logical body too, and is enforced while
	// unpacking: a packed frame whose output would blow past it is a bomb,
	// not a partial, and is rejected before that output is built.
	unpacked, err := lossless.DecompressMax(c, wire, int(maxPartialSize))
	if err != nil {
		return nil, fmt.Errorf("%w: unpack: %v", ErrCorruptPartial, err)
	}
	inner := &bodyReader{r: bytes.NewReader(unpacked), n: uint64(len(unpacked))}
	ur := core.NewWireReader(inner)
	defer ur.Release()
	return parseBody(ur, inner, dst)
}

// bodyReader confines the parser to the frame's declared body and
// remembers the source's own failure, so a stream that died mid-frame
// (timeout, disconnect) is reported as that and not as a corrupt
// structure. Reading past the declared body is io.EOF with err unset.
type bodyReader struct {
	r   Reader
	n   uint64 // body bytes not yet read
	err error  // the source's first error, if any
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, io.EOF
	}
	if uint64(len(p)) > b.n {
		p = p[:b.n]
	}
	k, err := b.r.Read(p)
	b.n -= uint64(k)
	if err != nil && b.err == nil {
		b.err = err
	}
	return k, err
}

func (b *bodyReader) ReadByte() (byte, error) {
	if b.n == 0 {
		return 0, io.EOF
	}
	c, err := b.r.ReadByte()
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return 0, err
	}
	b.n--
	return c, nil
}

// parseBody decodes the (uncompressed) body from wr, which reads
// through body, landing sums in dst's entries where they match (dst may
// be nil). Declared lengths are checked against the body bytes that
// remain before anything is allocated for them.
func parseBody(wr *core.WireReader, body *bodyReader, dst *orchestrator.Partial) (*orchestrator.Partial, error) {
	p := &orchestrator.Partial{}
	updates, err := wr.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: updates", ErrCorruptPartial)
	}
	p.Updates = int(updates)
	w, err := wr.Uint64BE()
	if err != nil {
		return nil, fmt.Errorf("%w: total weight", ErrCorruptPartial)
	}
	p.TotalWeight = math.Float64frombits(w)
	if math.IsNaN(p.TotalWeight) || math.IsInf(p.TotalWeight, 0) || p.TotalWeight < 0 {
		return nil, fmt.Errorf("%w: total weight %v", ErrCorruptPartial, p.TotalWeight)
	}
	// An entry is at least three bytes (name length, dtype, count).
	nEntries, err := wr.Uvarint()
	if err != nil || nEntries > body.n/3 {
		return nil, fmt.Errorf("%w: entry count", ErrCorruptPartial)
	}
	p.Entries = make([]orchestrator.PartialEntry, 0, min(nEntries, 1024))
	for i := uint64(0); i < nEntries; i++ {
		var into *orchestrator.PartialEntry
		if dst != nil && i < uint64(len(dst.Entries)) {
			into = &dst.Entries[i]
		}
		e, err := parseEntry(wr, body, into)
		if err != nil {
			return nil, err
		}
		p.Entries = append(p.Entries, e)
	}
	priorLen, err := wr.Uvarint()
	if err != nil || priorLen > body.n {
		return nil, fmt.Errorf("%w: prior length", ErrCorruptPartial)
	}
	if priorLen > 0 {
		if p.Prior, err = wr.Bytes(int(priorLen)); err != nil {
			return nil, fmt.Errorf("%w: prior blob", ErrCorruptPartial)
		}
	}
	// Optional span-summary tail: a body that ends here came from a
	// pre-tracing encoder — that's "no span", not corruption.
	if body.n == 0 {
		return p, nil
	}
	spanLen, err := wr.Uvarint()
	if err != nil || spanLen > body.n {
		return nil, fmt.Errorf("%w: span length", ErrCorruptPartial)
	}
	if spanLen > 0 {
		if p.Span, err = wr.Bytes(int(spanLen)); err != nil {
			return nil, fmt.Errorf("%w: span blob", ErrCorruptPartial)
		}
	}
	return p, nil
}

// parseEntry decodes one PartialEntry, its sums into into's storage when
// into (possibly nil) has the entry's name and shape.
func parseEntry(wr *core.WireReader, body *bodyReader, into *orchestrator.PartialEntry) (orchestrator.PartialEntry, error) {
	var e orchestrator.PartialEntry
	nameLen, err := wr.Uvarint()
	if err != nil || nameLen > 4096 {
		return e, fmt.Errorf("%w: entry name length", ErrCorruptPartial)
	}
	name, err := wr.Bytes(int(nameLen))
	if err != nil {
		return e, fmt.Errorf("%w: entry name", ErrCorruptPartial)
	}
	e.Name = string(name)
	dt, err := wr.ReadByte()
	if err != nil {
		return e, fmt.Errorf("%w: entry dtype", ErrCorruptPartial)
	}
	e.DType = model.DType(dt)
	switch e.DType {
	case model.Int64:
		n, err := wr.Uvarint()
		if err != nil || n > body.n/8 {
			return e, fmt.Errorf("%w: int entry length", ErrCorruptPartial)
		}
		if e.Ints, err = wr.Int64sBE(int(n)); err != nil {
			return e, fmt.Errorf("%w: int entry data", ErrCorruptPartial)
		}
	case model.Float32:
		ndim, err := wr.Uvarint()
		if err != nil || ndim > maxRank {
			return e, fmt.Errorf("%w: entry rank", ErrCorruptPartial)
		}
		var dims [maxRank]int
		shape := dims[:ndim]
		elems := uint64(1)
		for d := range shape {
			v, err := wr.Uvarint()
			if err != nil || v == 0 || v > maxPartialSize/8 {
				return e, fmt.Errorf("%w: entry shape", ErrCorruptPartial)
			}
			shape[d] = int(v)
			elems *= v
			if elems > maxPartialSize/8 {
				return e, fmt.Errorf("%w: entry too large", ErrCorruptPartial)
			}
		}
		if elems > body.n/8 {
			return e, fmt.Errorf("%w: entry sums", ErrCorruptPartial)
		}
		if into != nil && into.Name == e.Name && into.DType == model.Float32 &&
			slices.Equal(into.Shape, shape) && uint64(len(into.Sums)) == elems {
			e.Shape, e.Sums = into.Shape, into.Sums
			err = wr.Float64sBEInto(e.Sums)
		} else {
			e.Shape = slices.Clone(shape)
			e.Sums, err = wr.Float64sBE(int(elems))
		}
		if err != nil {
			return e, fmt.Errorf("%w: entry sums", ErrCorruptPartial)
		}
	default:
		return e, fmt.Errorf("%w: dtype %d", ErrCorruptPartial, dt)
	}
	return e, nil
}
