package core

import (
	"bytes"
	"fmt"
	"io"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// Binary state-dict serialization — the repository's stand-in for the
// pickle stage of paper Fig. 1: a compact, self-describing encoding of
// named tensors and integer metadata that preserves insertion order.
//
// Layout:
//
//	magic "FSD1" | count uvarint | entries...
//	entry: nameLen uvarint | name | dtype byte | ndims uvarint |
//	       dims uvarint... | payload (LE float32s or LE int64s)
const serializeMagic = "FSD1"

// stateDictWireSize returns the exact encoded length of sd.
func stateDictWireSize(sd *model.StateDict) int {
	n := len(serializeMagic) + UvarintLen(uint64(sd.Len()))
	for i := 0; i < sd.Len(); i++ {
		e := sd.At(i)
		n += UvarintLen(uint64(len(e.Name))) + len(e.Name) + 1
		switch e.DType {
		case model.Float32:
			n += UvarintLen(uint64(e.Tensor.Dims()))
			for d := 0; d < e.Tensor.Dims(); d++ {
				n += UvarintLen(uint64(e.Tensor.Dim(d)))
			}
			n += e.Tensor.SizeBytes()
		case model.Int64:
			n += 1 + UvarintLen(uint64(len(e.Ints))) + 8*len(e.Ints)
		}
	}
	return n
}

// MarshalStateDict encodes sd into the binary state-dict format: the
// streaming writer into a buffer of exactly the encoded length.
func MarshalStateDict(sd *model.StateDict) ([]byte, error) {
	out := bytes.NewBuffer(make([]byte, 0, stateDictWireSize(sd)))
	if err := MarshalStateDictTo(out, sd); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// MarshalStateDictTo streams the binary state-dict encoding of sd to
// w: headers and small tensors are staged in one fixed pooled
// scratch, and on a little-endian host every tensor of at least
// WireChunk bytes is written to w straight from its own storage, so a
// multi-hundred-MB model broadcasts without materializing the wire
// image, without a per-element conversion and without a steady-state
// allocation. w sees tensor storage only for the length of a Write
// call, and many goroutines may marshal one dict at once. The bytes
// written are exactly what MarshalStateDict returns.
func MarshalStateDictTo(w io.Writer, sd *model.StateDict) error {
	ww := NewWireWriter(w)
	ww.String(serializeMagic)
	ww.Uvarint(uint64(sd.Len()))
	for i := 0; i < sd.Len(); i++ {
		e := sd.At(i)
		ww.Uvarint(uint64(len(e.Name)))
		ww.String(e.Name)
		ww.Byte(byte(e.DType))
		if e.DType == model.Int64 {
			ww.Uvarint(1)
			ww.Uvarint(uint64(len(e.Ints)))
			ww.Int64sLE(e.Ints)
			continue
		}
		ww.Uvarint(uint64(e.Tensor.Dims()))
		for d := 0; d < e.Tensor.Dims(); d++ {
			ww.Uvarint(uint64(e.Tensor.Dim(d)))
		}
		ww.Float32sLE(e.Tensor.Data())
	}
	if err := ww.Close(); err != nil {
		return fmt.Errorf("core: write state dict: %w", err)
	}
	return nil
}

// UnmarshalStateDictFrom decodes one streamed state dict from r,
// reading exactly the encoded bytes (no readahead beyond r's own
// buffering; pass an io.ByteReader-capable reader such as
// *bufio.Reader when more data follows on the stream). Declared
// lengths are checked against absolute caps and payloads are read with
// bounded incremental allocation, so a forged header cannot force a
// giant allocation. A stream with no bytes at all returns io.EOF.
func UnmarshalStateDictFrom(r io.Reader) (*model.StateDict, error) {
	return UnmarshalStateDictInto(r, nil)
}

// UnmarshalStateDictInto is UnmarshalStateDictFrom for a receiver that
// already holds a dict of the expected shape — a client's previous
// global. Entry i of the stream lands in dst's i-th entry when the two
// agree on name, dtype and shape: the payload is read straight into
// that entry's existing storage (a destination the caller vouches for
// needs no staged growth) and the returned dict carries dst's own
// tensor for it. Any entry that does not match is allocated exactly as
// UnmarshalStateDictFrom would and leaves dst's entry untouched, so a
// nil, shorter, longer or differently shaped dst only costs allocation.
// The decoded values are those UnmarshalStateDictFrom yields for the
// same bytes, and when every entry landed in dst and the counts agree
// the returned dict is dst itself. On error dst's matching entries hold
// unspecified values (not necessarily old or new ones: a run cut short
// may not be in host byte order yet); after success dst must no
// longer be read as the old model — the returned dict has taken its
// storage over.
func UnmarshalStateDictInto(r io.Reader, dst *model.StateDict) (*model.StateDict, error) {
	return UnmarshalStateDictEntriesInto(r, dst, func(model.Entry) error { return nil })
}

// UnmarshalStateDictEntriesInto is the streaming decode of
// UnmarshalStateDictEntriesFrom landing in dst as UnmarshalStateDictInto
// does: each entry is emitted as soon as its payload is read, from dst's
// storage when it matches, and the dict returned holds every entry
// emitted — dst itself when all of them landed in it — for the caller to
// land its next stream in. Unlike UnmarshalStateDictEntriesFrom it
// rejects a duplicate name as corrupt, after emit has seen the entry.
func UnmarshalStateDictEntriesInto(r io.Reader, dst *model.StateDict, emit func(e model.Entry) error) (*model.StateDict, error) {
	// held is dst while every entry so far landed in it at its own
	// position, and a dict of its own from the first one that did not.
	held, n := dst, 0
	err := unmarshalStateDictEntries(r, dst, nil, func(e model.Entry, landed bool) error {
		if err := emit(e); err != nil {
			return err
		}
		if held == dst && !landed {
			held = prefix(dst, n)
		}
		n++
		if held == dst {
			return nil
		}
		if err := held.Add(e); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if held == dst && (dst == nil || n < dst.Len()) {
		held = prefix(dst, n)
	}
	return held, nil
}

// prefix returns a new dict of dst's first n entries.
func prefix(dst *model.StateDict, n int) *model.StateDict {
	sd := model.NewStateDict()
	for i := 0; i < n; i++ {
		_ = sd.Add(dst.At(i)) // a dict's own entries are valid and distinct
	}
	return sd
}

// UnmarshalStateDictEntriesFrom decodes one streamed state dict from r
// as a stream of entries: emit receives each entry as soon as its
// payload is read, so a consumer can fold a plain (uncompressed)
// update into an aggregate entry by entry without materializing the
// full state dict. Entries arrive in encoded order from the calling
// goroutine; duplicate-name detection is the consumer's job. Framing,
// limits and the io.EOF-on-empty-stream contract match
// UnmarshalStateDictFrom.
func UnmarshalStateDictEntriesFrom(r io.Reader, emit func(e model.Entry) error) error {
	return unmarshalStateDictEntries(r, nil, nil, func(e model.Entry, _ bool) error { return emit(e) })
}

// reusable reports whether a stream entry with this header can be
// decoded into e's existing storage.
func reusable(e model.Entry, name string, dtype model.DType, shape []int) bool {
	if e.Name != name || e.DType != dtype {
		return false
	}
	if dtype == model.Int64 {
		return len(shape) == 1 && len(e.Ints) == shape[0]
	}
	return e.Tensor != nil && e.Tensor.HasShape(shape...)
}

// unmarshalStateDictEntries is the one FSD1 stream decoder. With a
// non-nil dst, a stream entry whose header matches dst's entry at the
// same position is decoded into that entry's storage and emitted as
// dst's own entry, with landed set; every other entry is freshly
// allocated. A non-nil at says where in dst "the same position" is:
// stream entry i lines up with dst's entry at[i] (a frame's metadata
// section holds a subset of the dict's entries), and with none past
// at's end.
func unmarshalStateDictEntries(r io.Reader, dst *model.StateDict, at []int, emit func(e model.Entry, landed bool) error) error {
	src := newStreamSource(r)
	defer src.Release()
	magic, err := src.payload(uint64(len(serializeMagic)))
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: bad state-dict magic", ErrCorrupt)
	}
	if string(magic) != serializeMagic {
		return fmt.Errorf("%w: bad state-dict magic", ErrCorrupt)
	}
	count, err := src.uvarint()
	if err != nil {
		return fmt.Errorf("%w: state-dict count", ErrCorrupt)
	}
	if count > maxStreamEntries {
		return fmt.Errorf("%w: state-dict count %d exceeds bound", ErrCorrupt, count)
	}
	var dims [maxStreamDims]int // tensor.FromData copies the shape it is handed
	for i := uint64(0); i < count; i++ {
		name, err := src.readString()
		if err != nil {
			return fmt.Errorf("%w: entry %d name", ErrCorrupt, i)
		}
		dt, err := src.r.ReadByte()
		if err != nil {
			return fmt.Errorf("%w: entry %q dtype", ErrCorrupt, name)
		}
		dtype := model.DType(dt)

		ndims, err := src.uvarint()
		if err != nil || ndims > maxStreamDims {
			return fmt.Errorf("%w: entry %q dims", ErrCorrupt, name)
		}
		// Bound each dimension and the running product so a forged
		// shape can neither wrap the int conversion nor wrap the
		// product back into plausible range (tensor.FromData recomputes
		// the same product and would accept the wrap).
		shape := dims[:ndims]
		elems64 := uint64(1)
		for d := range shape {
			v, err := src.uvarint()
			if err != nil || v > maxStreamElems {
				return fmt.Errorf("%w: entry %q dim %d", ErrCorrupt, name, d)
			}
			if elems64 *= v; elems64 > maxStreamElems {
				return fmt.Errorf("%w: entry %q element overflow", ErrCorrupt, name)
			}
			shape[d] = int(v)
		}
		elems := int(elems64)

		// e is dst's entry for this position when the header matches it
		// (inPlace), else the freshly allocated one built below.
		var e model.Entry
		inPlace := false
		pos := int(i) // count, and so i, is capped well inside int
		if at != nil {
			if pos = -1; i < uint64(len(at)) {
				pos = at[i]
			}
		}
		if dst != nil && pos >= 0 && pos < dst.Len() {
			if e = dst.At(pos); reusable(e, name, dtype, shape) {
				inPlace = true
			}
		}

		switch dtype {
		case model.Float32:
			if inPlace {
				if err := src.Float32sLEInto(e.Tensor.Data()); err != nil {
					return fmt.Errorf("%w: entry %q payload: %w", ErrCorrupt, name, err)
				}
			} else {
				data, err := src.Float32sLE(elems)
				if err != nil {
					return fmt.Errorf("%w: entry %q payload: %w", ErrCorrupt, name, err)
				}
				t, err := tensor.FromData(data, shape...)
				if err != nil {
					return fmt.Errorf("%w: entry %q: %v", ErrCorrupt, name, err)
				}
				e = model.Entry{Name: name, DType: model.Float32, Tensor: t}
			}
			if err := emit(e, inPlace); err != nil {
				return err
			}
		case model.Int64:
			if uint64(elems) > maxStreamSection/8 {
				return fmt.Errorf("%w: entry %q payload", ErrCorrupt, name)
			}
			if inPlace {
				err = src.Int64sLEInto(e.Ints)
			} else {
				e = model.Entry{Name: name, DType: model.Int64}
				e.Ints, err = src.Int64sLE(elems)
			}
			if err != nil {
				return fmt.Errorf("%w: entry %q payload: %w", ErrCorrupt, name, err)
			}
			if err := emit(e, inPlace); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: entry %q dtype %d", ErrCorrupt, name, dtype)
		}
	}
	return nil
}

// UnmarshalStateDict decodes a buffer produced by MarshalStateDict:
// UnmarshalStateDictFrom over buf, except that an empty buf, or one with
// bytes left after the dict, is corrupt.
func UnmarshalStateDict(buf []byte) (*model.StateDict, error) {
	r := bytes.NewReader(buf)
	sd, err := UnmarshalStateDictFrom(r)
	switch {
	case err == io.EOF:
		return nil, fmt.Errorf("%w: bad state-dict magic", ErrCorrupt)
	case err == nil && r.Len() != 0:
		return nil, fmt.Errorf("%w: %d bytes after the state dict", ErrCorrupt, r.Len())
	}
	return sd, err
}
