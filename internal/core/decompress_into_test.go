package core

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// frameOf compresses sd with the default pipeline (optionally checked).
func frameOf(t testing.TB, sd *model.StateDict, checksum bool) []byte {
	t.Helper()
	p, err := NewPipeline(Config{Checksum: checksum})
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// assertSameBits fails unless got and want hold the same entries, in the
// same order, bit for bit.
func assertSameBits(t *testing.T, got, want *model.StateDict) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d entries, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if g.Name != w.Name || g.DType != w.DType {
			t.Fatalf("entry %d is %q (%v), want %q (%v)", i, g.Name, g.DType, w.Name, w.DType)
		}
		if g.DType == model.Float32 && !slices.Equal(g.Tensor.Shape(), w.Tensor.Shape()) {
			t.Fatalf("entry %q has shape %v, want %v", g.Name, g.Tensor.Shape(), w.Tensor.Shape())
		}
		if !slices.Equal(entryBits(g), entryBits(w)) {
			t.Fatalf("entry %q differs from the allocating decode", g.Name)
		}
	}
}

// TestDecompressIntoAliasesMatchingDict: a frame decoded into a dict of
// the same shape lands every tensor — lossy sections and metadata alike —
// in that dict's own storage, at any parallelism, checked or not, and
// yields bit for bit what DecompressFrom yields for the same bytes.
func TestDecompressIntoAliasesMatchingDict(t *testing.T) {
	src := model.BuildStateDict(model.MobileNetV2(16), 3)
	for _, checksum := range []bool{false, true} {
		frame := frameOf(t, src, checksum)
		want, err := DecompressFrom(bytes.NewReader(frame), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallelism := range []int{1, 4} {
			dst := model.BuildStateDict(model.MobileNetV2(16), 99) // the receiver's previous model
			got, err := DecompressInto(&dribble{r: bytes.NewReader(frame)}, parallelism, dst)
			if err != nil {
				t.Fatalf("checksum %v, parallelism %d: %v", checksum, parallelism, err)
			}
			assertSameBits(t, got, want)
			for i := 0; i < got.Len(); i++ {
				if g, d := got.At(i), dst.At(i); storage(g) != storage(d) || g.Tensor != d.Tensor {
					t.Fatalf("checksum %v, parallelism %d: entry %q was not decoded into dst's storage", checksum, parallelism, g.Name)
				}
			}
		}
	}
}

// TestDecompressIntoMismatchAllocatesFresh: an entry that differs from
// dst's entry at the same position — a lossy tensor's shape, a metadata
// entry's name, a dict cut short — is allocated as DecompressFrom would
// and dst's own slice for it stays untouched; everything else still lands
// in dst. A nil dst is DecompressFrom.
func TestDecompressIntoMismatchAllocatesFresh(t *testing.T) {
	src := model.BuildStateDict(model.MobileNetV2(16), 3)
	frame := frameOf(t, src, false)
	want, err := DecompressFrom(bytes.NewReader(frame), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The first lossy-path tensor and the first metadata tensor of the dict.
	p, _ := NewPipeline(Config{})
	lossyAt, metaAt := -1, -1
	for i, e := range src.Entries() {
		if p.shouldLossy(e) && lossyAt < 0 {
			lossyAt = i
		}
		if !p.shouldLossy(e) && e.DType == model.Float32 && metaAt < 0 {
			metaAt = i
		}
	}
	if lossyAt < 0 || metaAt < 0 {
		t.Fatal("the test dict has no lossy or no metadata tensor")
	}
	for name, cut := range map[string]int{"whole": src.Len(), "shorter": src.Len() / 2} {
		t.Run(name, func(t *testing.T) {
			dst := model.NewStateDict()
			untouched := map[int][]uint64{}
			for i, e := range model.BuildStateDict(model.MobileNetV2(16), 99).Entries() {
				if i >= cut {
					break
				}
				switch i {
				case lossyAt: // same name, flattened shape
					flat, err := tensor.FromData(e.Tensor.Data(), e.Tensor.NumElements())
					if err != nil {
						t.Fatal(err)
					}
					e.Tensor = flat
				case metaAt:
					e.Name += ".renamed"
				}
				if i == lossyAt || i == metaAt {
					untouched[i] = entryBits(e)
				}
				if err := dst.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			got, err := DecompressInto(bytes.NewReader(frame), 2, dst)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, got, want)
			for i := 0; i < got.Len(); i++ {
				fresh := i >= cut || i == lossyAt || i == metaAt
				if i < dst.Len() && (storage(got.At(i)) == storage(dst.At(i))) == fresh {
					t.Errorf("entry %d (%q): decoded in place = %v, want %v", i, got.At(i).Name, !fresh, fresh)
				}
			}
			for i, bits := range untouched {
				if !slices.Equal(entryBits(dst.At(i)), bits) {
					t.Errorf("dst's mismatched entry %d was written to", i)
				}
			}
		})
	}
	got, err := DecompressInto(bytes.NewReader(frame), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, got, want)
}

// TestDecompressIntoTruncated: a frame cut anywhere fails as corrupt —
// the receiver's dict is then partly overwritten, which is the contract —
// and never panics; the next whole frame decodes into the same dict.
func TestDecompressIntoTruncated(t *testing.T) {
	src := model.BuildStateDict(model.MobileNetV2(16), 3)
	frame := frameOf(t, src, true)
	dst := model.BuildStateDict(model.MobileNetV2(16), 99)
	for _, cut := range []int{0, 3, 5, 40, len(frame) / 3, len(frame) / 2, len(frame) - 5, len(frame) - 1} {
		_, err := DecompressInto(bytes.NewReader(frame[:cut]), 2, dst)
		if cut == 0 {
			if err == nil {
				t.Fatal("an empty stream decoded")
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d of %d: err = %v, want ErrCorrupt", cut, len(frame), err)
		}
	}
	want, _ := DecompressFrom(bytes.NewReader(frame), 1)
	got, err := DecompressInto(bytes.NewReader(frame), 2, dst)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, got, want)
}

// TestDecompressIntoSteadyStateAllocation: a stream of same-shaped
// frames into one dict allocates no tensor and no compressed section.
// Per frame the decode allocates less than the largest tensor, so no
// allocation of that size happened at all; and a decode whose arena is
// too small replaces it with one the frame fits, so payloads are
// allocated at most once per arena the pool holds — a sync.Pool keeps
// one out of reach per P — not once per frame.
func TestDecompressIntoSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops its contents at random under the race detector")
	}
	src := model.BuildStateDict(model.MobileNetV2(8), 3)
	frame := frameOf(t, src, false)
	dst := src.Clone()
	largest := 0
	for _, e := range src.Entries() {
		largest = max(largest, e.SizeBytes())
	}
	frameArenas = sync.Pool{New: frameArenas.New} // no arena of another test's frames
	decode := func() (spilled bool) {
		ss := newStreamSource(bytes.NewReader(frame))
		ss.borrowArena()
		defer ss.returnArena()
		var err error
		if dst, err = decodeFrame(ss, 2, nil, dst); err != nil {
			t.Fatal(err)
		}
		return ss.spill > 0
	}
	if !decode() {
		t.Fatal("the first frame fitted an empty arena")
	}
	const n = 40
	spills := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if decode() {
			spills++
		}
	}
	runtime.ReadMemStats(&after)
	perFrame := int((after.TotalAlloc - before.TotalAlloc) / n)
	t.Logf("%d B allocated per %d B frame of a %d B model (largest tensor %d B); %d of %d decodes met a short arena",
		perFrame, len(frame), src.SizeBytes(), largest, spills, n)
	if perFrame >= largest {
		t.Fatalf("an in-place decode allocates %d B per frame, the largest tensor is %d B: tensors are being allocated again", perFrame, largest)
	}
	if spills > 2*runtime.GOMAXPROCS(0) {
		t.Fatalf("%d of %d decodes allocated their payloads: the arena is not being reused", spills, n)
	}
}
