package hier

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/lossless"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// dirtyLike returns a partial with p's layout whose every sum is NaN and
// whose prior and span are blobs of its own: the landing a receiver
// kept from an earlier round.
func dirtyLike(p *orchestrator.Partial) *orchestrator.Partial {
	d := &orchestrator.Partial{TotalWeight: -1, Updates: -1, Prior: []byte("stale prior"), Span: []byte("stale span")}
	for _, e := range p.Entries {
		e.Shape = slices.Clone(e.Shape)
		if e.Sums != nil {
			e.Sums = make([]float64, len(e.Sums))
			for i := range e.Sums {
				e.Sums[i] = math.NaN()
			}
		}
		e.Ints = slices.Clone(e.Ints)
		d.Entries = append(d.Entries, e)
	}
	return d
}

// sumsAt is the address of an entry's first sum (nil when it has none):
// two entries share sum storage exactly when these are equal.
func sumsAt(e orchestrator.PartialEntry) *float64 {
	if len(e.Sums) == 0 {
		return nil
	}
	return &e.Sums[0]
}

// bytesAt is the address of a blob's first byte (nil when empty).
func bytesAt(b []byte) *byte {
	if len(b) == 0 {
		return nil
	}
	return &b[0]
}

// bitsOf snapshots an entry's sums and integers bit for bit.
func bitsOf(e orchestrator.PartialEntry) []uint64 {
	var bits []uint64
	for _, v := range e.Sums {
		bits = append(bits, math.Float64bits(v))
	}
	for _, v := range e.Ints {
		bits = append(bits, uint64(v))
	}
	return bits
}

// TestDecodePartialIntoAliasesMatching: decoding into a partial of the
// same layout lands every entry's sums in that partial's own storage —
// across conversion-chunk seams, raw or packed — and yields what
// DecodePartialFrom yields; the returned partial, its entry list, prior
// and span are never dst's.
func TestDecodePartialIntoAliasesMatching(t *testing.T) {
	small := samplePartial(rand.New(rand.NewSource(17)))
	small.Span = []byte{1, 2, 3}
	for name, c := range map[string]struct {
		p    *orchestrator.Partial
		opts WireOptions
	}{
		"small":        {small, WireOptions{Checksum: true}},
		"large":        {largePartial(), WireOptions{Checksum: true}},
		"large packed": {largePartial(), WireOptions{Checksum: true, Lossless: lossless.NameZlib}},
	} {
		frame, err := EncodePartial(c.p, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		dst := dirtyLike(c.p)
		got, err := DecodePartialInto(byteAtATime{bytes.NewReader(frame)}, dst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		partialsEqual(t, c.p, got)
		if !bytes.Equal(got.Span, c.p.Span) {
			t.Fatalf("%s: span %x, want %x", name, got.Span, c.p.Span)
		}
		for i, e := range got.Entries {
			if e.DType == model.Float32 && sumsAt(e) != sumsAt(dst.Entries[i]) {
				t.Fatalf("%s: entry %q was not decoded into dst's sums", name, e.Name)
			}
		}
		if got == dst || &got.Entries[0] == &dst.Entries[0] {
			t.Fatalf("%s: the returned partial is dst's own", name)
		}
		if bytesAt(got.Prior) == bytesAt(dst.Prior) || (got.Span != nil && bytesAt(got.Span) == bytesAt(dst.Span)) {
			t.Fatalf("%s: the prior or span aliases dst's", name)
		}
	}
}

// TestDecodePartialIntoMismatchAllocates: an entry whose name, dtype,
// rank or any dimension differs from dst's entry at the same position —
// or that dst has no entry for — is allocated as DecodePartialFrom would
// and leaves dst's entry untouched, while the other entries still land
// in dst; a dst with more entries than the frame works too.
func TestDecodePartialIntoMismatchAllocates(t *testing.T) {
	src := samplePartial(rand.New(rand.NewSource(19))) // conv1.weight {8,3,3}, conv1.bias {8}, fc.weight {16,13}, int64
	frame, err := EncodePartial(src, WireOptions{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	floats := func(name string, shape ...int) orchestrator.PartialEntry {
		n := 1
		for _, d := range shape {
			n *= d
		}
		return orchestrator.PartialEntry{Name: name, DType: model.Float32, Shape: shape, Sums: make([]float64, n)}
	}
	cases := []struct {
		name  string
		at    int                       // the entry of dst that is replaced ...
		with  orchestrator.PartialEntry // ... by this one (zero Name: dst is cut to at entries)
		extra bool                      // dst gets one more entry than the frame
	}{
		{name: "name", at: 1, with: floats("conv1.beta", 8)},
		{name: "dtype", at: 1, with: orchestrator.PartialEntry{Name: "conv1.bias", DType: model.Int64, Ints: make([]int64, 8)}},
		{name: "rank", at: 0, with: floats("conv1.weight", 72)},
		{name: "dims transposed", at: 2, with: floats("fc.weight", 13, 16)},
		{name: "dim", at: 2, with: floats("fc.weight", 16, 14)},
		{name: "dst shorter", at: 2},
		{name: "dst longer", at: -1, extra: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := dirtyLike(src)
			if tc.at >= 0 {
				if tc.with.Name == "" {
					dst.Entries = dst.Entries[:tc.at]
				} else {
					dst.Entries[tc.at] = tc.with
				}
			}
			if tc.extra {
				dst.Entries = append(dst.Entries, floats("tail.weight", 3))
			}
			var before [][]uint64
			for _, e := range dst.Entries {
				before = append(before, bitsOf(e))
			}

			got, err := DecodePartialInto(bytes.NewReader(frame), dst)
			if err != nil {
				t.Fatal(err)
			}
			partialsEqual(t, src, got)
			for i, d := range dst.Entries {
				matches := i < len(src.Entries) && i != tc.at && d.DType == model.Float32
				g := orchestrator.PartialEntry{}
				if i < len(got.Entries) {
					g = got.Entries[i]
				}
				switch {
				case matches && sumsAt(g) != sumsAt(d):
					t.Fatalf("matching entry %q was reallocated", d.Name)
				case !matches && sumsAt(d) != nil && sumsAt(g) == sumsAt(d):
					t.Fatalf("mismatching entry %q was decoded over dst's %q", g.Name, d.Name)
				}
				if !matches && !slices.Equal(bitsOf(d), before[i]) {
					t.Fatalf("dst entry %q was written though the frame's entry does not match it", d.Name)
				}
			}
		})
	}
}

// errClasses are the error classes a partial decode can fail with.
var errClasses = []error{io.EOF, io.ErrUnexpectedEOF, core.ErrCorrupt, ErrCorruptPartial}

// TestDecodePartialIntoFailsLikeFrom: a checksummed frame cut on and
// around every conversion-chunk seam and at every trailer byte, or
// complete with a bit flipped in its last entry, fails into a matching
// dst with the error class it fails with into nothing.
func TestDecodePartialIntoFailsLikeFrom(t *testing.T) {
	frame, err := EncodePartial(largePartial(), WireOptions{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(frame)
	flipped[len(flipped)-30] ^= 0x10 // inside the last entry's data
	inputs := map[string][]byte{"bad crc": flipped}
	for seam := 0; seam < len(frame); seam += core.WireChunk {
		for d := -9; d <= 9; d++ {
			if cut := seam + d; cut >= 0 && cut < len(frame) {
				inputs[fmt.Sprintf("cut at %d", cut)] = frame[:cut]
			}
		}
	}
	for back := 1; back <= 12; back++ {
		inputs[fmt.Sprintf("cut at %d", len(frame)-back)] = frame[:len(frame)-back]
	}
	dst := dirtyLike(largePartial())
	for name, in := range inputs {
		_, errFrom := DecodePartialFrom(bytes.NewReader(in))
		_, errInto := DecodePartialInto(bytes.NewReader(in), dst)
		if errFrom == nil || errInto == nil {
			t.Fatalf("%s: decoded a damaged frame (From %v, Into %v)", name, errFrom, errInto)
		}
		for _, class := range errClasses {
			if errors.Is(errFrom, class) != errors.Is(errInto, class) {
				t.Fatalf("%s: From fails with %q, Into with %q", name, errFrom, errInto)
			}
		}
	}
	if _, err := DecodePartialInto(bytes.NewReader(flipped), dst); !errors.Is(err, ErrCorruptPartial) {
		t.Fatalf("bad crc: %v, want ErrCorruptPartial", err)
	}
}
