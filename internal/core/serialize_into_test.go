package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// storage returns the address of an entry's first element (nil when
// empty): two entries share storage exactly when these are equal.
func storage(e model.Entry) any {
	switch {
	case e.DType == model.Float32 && e.NumElements() > 0:
		return &e.Tensor.Data()[0]
	case e.DType == model.Int64 && len(e.Ints) > 0:
		return &e.Ints[0]
	}
	return nil
}

// entryBits snapshots an entry's payload bit for bit.
func entryBits(e model.Entry) []uint64 {
	var bits []uint64
	if e.DType == model.Float32 {
		for _, v := range e.Tensor.Data() {
			bits = append(bits, uint64(math.Float32bits(v)))
		}
	}
	for _, v := range e.Ints {
		bits = append(bits, uint64(v))
	}
	return bits
}

func mustMarshal(t testing.TB, sd *model.StateDict) []byte {
	t.Helper()
	buf, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestUnmarshalIntoAliasesMatchingDict: decoding into a dict of the same
// shape lands every payload in that dict's own storage — across
// conversion-chunk seams — and yields what UnmarshalStateDictFrom
// yields for the same bytes.
func TestUnmarshalIntoAliasesMatchingDict(t *testing.T) {
	for name, build := range map[string]func(testing.TB) *model.StateDict{"small": smallStateDict, "large": largeStateDict} {
		wire := mustMarshal(t, build(t))
		dst := build(t)
		for _, e := range dst.Entries() { // the receiver's previous model: other values
			if e.DType == model.Float32 {
				for i := range e.Tensor.Data() {
					e.Tensor.Data()[i] = -1
				}
			}
			for i := range e.Ints {
				e.Ints[i] = -1
			}
		}
		got, err := UnmarshalStateDictInto(&dribble{r: bytes.NewReader(wire)}, dst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != dst {
			t.Fatalf("%s: every entry landed in dst, but a new dict was returned", name)
		}
		for i := 0; i < got.Len(); i++ {
			if g, d := got.At(i), dst.At(i); storage(g) != storage(d) || g.Tensor != d.Tensor {
				t.Fatalf("%s: entry %q was not decoded into dst's storage", name, g.Name)
			}
		}
		if !bytes.Equal(mustMarshal(t, got), wire) {
			t.Fatalf("%s: the dict decoded in place does not re-marshal to the wire bytes", name)
		}
	}
}

// TestUnmarshalIntoMismatchAllocatesFresh: an entry whose name, dtype,
// rank, any dimension or Int64 length differs from dst's entry at the
// same position is allocated as UnmarshalStateDictFrom would, dst's
// slice for it stays untouched, the other entries still land in dst —
// and a dst with fewer or more entries than the stream works too.
func TestUnmarshalIntoMismatchAllocatesFresh(t *testing.T) {
	src := smallStateDict(t) // t0 {7,5}, t1 {7}, t2 {1}, i0 [1], i1 [3]
	wire := mustMarshal(t, src)
	float := func(name string, shape ...int) model.Entry {
		n := 1
		for _, d := range shape {
			n *= d
		}
		tt, err := tensor.FromData(make([]float32, n), shape...)
		if err != nil {
			t.Fatal(err)
		}
		return model.Entry{Name: name, DType: model.Float32, Tensor: tt}
	}
	cases := []struct {
		name  string
		at    int         // the entry of dst that is replaced ...
		with  model.Entry // ... by this one (zero Name: dst is cut to at entries)
		extra bool        // dst gets one more entry than the stream
	}{
		{name: "name", at: 1, with: float("t1.bias", 7)},
		{name: "dtype float over int", at: 3, with: float("i0", 1)},
		{name: "dtype int over float", at: 2, with: model.Entry{Name: "t2.weight", DType: model.Int64, Ints: []int64{9}}},
		{name: "rank", at: 0, with: float("t0.weight", 35)},
		{name: "dims transposed", at: 0, with: float("t0.weight", 5, 7)},
		{name: "dim", at: 1, with: float("t1.weight", 8)},
		{name: "int64 length", at: 4, with: model.Entry{Name: "i1", DType: model.Int64, Ints: []int64{5, 5}}},
		{name: "dst shorter", at: 2},
		{name: "dst longer", at: -1, extra: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := model.NewStateDict()
			for i, e := range smallStateDict(t).Entries() {
				if i == tc.at {
					if tc.with.Name == "" {
						break
					}
					e = tc.with
				}
				if err := dst.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			if tc.extra {
				if err := dst.Add(float("tail.weight", 3)); err != nil {
					t.Fatal(err)
				}
			}
			var before [][]uint64
			for _, e := range dst.Entries() {
				before = append(before, entryBits(e))
			}

			got, err := UnmarshalStateDictInto(bytes.NewReader(wire), dst)
			if err != nil {
				t.Fatal(err)
			}
			if got == dst {
				t.Fatal("dst was returned as the decoded dict though it does not match the stream")
			}
			assertDictsEqual(t, src, got, 0)
			for i := 0; i < dst.Len(); i++ {
				d := dst.At(i)
				matches := i < src.Len() && i != tc.at
				switch {
				case matches && storage(got.At(i)) != storage(d):
					t.Fatalf("matching entry %q was reallocated", d.Name)
				case !matches && i < got.Len() && storage(got.At(i)) == storage(d):
					t.Fatalf("mismatching entry %q was decoded over dst's %q", got.At(i).Name, d.Name)
				}
				if !matches {
					for j, b := range entryBits(d) {
						if b != before[i][j] {
							t.Fatalf("dst entry %q was written though the stream entry does not match it", d.Name)
						}
					}
				}
			}
		})
	}
}

// TestUnmarshalIntoTruncations: a stream cut anywhere — header, chunk
// seam, mid-payload — fails into a matching dst with the error class it
// fails with into nothing.
func TestUnmarshalIntoTruncations(t *testing.T) {
	wire := mustMarshal(t, largeStateDict(t))
	cuts := map[int]bool{0: true, 3: true, 40: true, len(wire) / 2: true, len(wire) - 1: true}
	for seam := WireChunk; seam < len(wire); seam += WireChunk {
		for d := -5; d <= 5; d++ {
			cuts[seam+d] = true
		}
	}
	dst := largeStateDict(t)
	for cut := range cuts {
		_, errFrom := UnmarshalStateDictFrom(bytes.NewReader(wire[:cut]))
		_, errInto := UnmarshalStateDictInto(bytes.NewReader(wire[:cut]), dst)
		if errFrom == nil || errInto == nil {
			t.Fatalf("cut %d: decoded a truncated stream (From %v, Into %v)", cut, errFrom, errInto)
		}
		for _, class := range []error{io.EOF, ErrCorrupt, io.ErrUnexpectedEOF} {
			if errors.Is(errFrom, class) != errors.Is(errInto, class) {
				t.Fatalf("cut %d: From fails with %q, Into with %q", cut, errFrom, errInto)
			}
		}
	}
}

// TestUnmarshalIntoAllocsIndependentOfModelSize: with a matching dst the
// decode allocates the returned dict's bookkeeping and nothing that
// grows with the tensors.
func TestUnmarshalIntoAllocsIndependentOfModelSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	allocs := func(scale int) float64 {
		shapes := [][]int{{64 * scale, 33}, {64 * scale}, {1}, {9 * scale, 5, 3}}
		ints := [][]int64{make([]int64, 4*scale), {1}}
		wire := mustMarshal(t, fsd1Dict(t, 51, shapes, ints))
		dst := fsd1Dict(t, 52, shapes, ints)
		r := bytes.NewReader(nil)
		return testing.AllocsPerRun(10, func() {
			r.Reset(wire)
			got, err := UnmarshalStateDictInto(r, dst)
			if err != nil {
				t.Fatal(err)
			}
			dst = got
		})
	}
	small, large := allocs(1), allocs(64)
	if small != large {
		t.Fatalf("decode into a matching dict: %v allocs for the small model, %v for one 64x its size", small, large)
	}
	t.Logf("%v allocs per decode at either size", small)
}

// FuzzUnmarshalStateDictInto feeds arbitrary bytes to the in-place
// decoder with a destination whose every slice sits between canaries:
// it must never write outside dst's slices, must succeed exactly when
// UnmarshalStateDictFrom does, and must then decode the same dict. The
// whole-buffer UnmarshalStateDict must agree with both on every input.
func FuzzUnmarshalStateDictInto(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fsd1_small.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(mustMarshal(f, fsd1Dict(f, 31, [][]int{{5, 7}, {7}}, [][]int64{{1, 2}, {3}}))) // partly matching
	f.Add([]byte(serializeMagic))
	f.Add([]byte{})

	const guard = 8
	const canary = 0x5ca1ab1e
	f.Fuzz(func(t *testing.T, data []byte) {
		// dst has the golden's layout; each payload is the middle of a
		// larger array whose margins must come back untouched.
		dst := model.NewStateDict()
		var floatMargins [][]float32
		var intMargins [][]int64
		for _, e := range smallStateDict(t).Entries() {
			n := e.NumElements()
			if e.DType == model.Float32 {
				backing := make([]float32, n+2*guard)
				for i := range backing {
					backing[i] = math.Float32frombits(canary)
				}
				floatMargins = append(floatMargins, backing[:guard], backing[guard+n:])
				e.Tensor, err = tensor.FromData(backing[guard:guard+n:guard+n], e.Tensor.Shape()...)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				backing := make([]int64, n+2*guard)
				for i := range backing {
					backing[i] = canary
				}
				intMargins = append(intMargins, backing[:guard], backing[guard+n:])
				e.Ints = backing[guard : guard+n : guard+n]
			}
			if err := dst.Add(e); err != nil {
				t.Fatal(err)
			}
		}

		from := bytes.NewReader(data)
		want, errFrom := UnmarshalStateDictFrom(from)
		trailing := from.Len()
		got, errInto := UnmarshalStateDictInto(bytes.NewReader(data), dst)
		for _, m := range floatMargins {
			for _, v := range m {
				if math.Float32bits(v) != canary {
					t.Fatal("the decoder wrote outside a dst tensor")
				}
			}
		}
		for _, m := range intMargins {
			for _, v := range m {
				if v != canary {
					t.Fatal("the decoder wrote outside a dst Int64 entry")
				}
			}
		}
		if (errFrom == nil) != (errInto == nil) {
			t.Fatalf("From: %v, Into: %v", errFrom, errInto)
		}
		// The whole-buffer decoder also refuses bytes after the dict.
		whole, errWhole := UnmarshalStateDict(data)
		if (errFrom == nil && trailing == 0) != (errWhole == nil) {
			t.Fatalf("From: %v with %d bytes left, whole buffer: %v", errFrom, trailing, errWhole)
		}
		if errFrom != nil {
			return
		}
		// Compared as wire bytes, so NaN payloads compare by bits.
		wantBytes := mustMarshal(t, want)
		if !bytes.Equal(mustMarshal(t, got), wantBytes) {
			t.Fatal("Into decoded a different dict than From")
		}
		if errWhole == nil && !bytes.Equal(mustMarshal(t, whole), wantBytes) {
			t.Fatal("the whole-buffer decoder decoded a different dict than From")
		}
	})
}
