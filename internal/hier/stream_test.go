package hier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// FuzzDecodePartial feeds the streaming decoder arbitrary frames: it
// may reject them, never panic, and whatever it accepts must survive a
// re-encode/decode round trip bit for bit. Decoding into a NaN-filled
// landing — one of the golden layout, and one of the frame's own — must
// succeed exactly when decoding into nothing does, with the same bits.
func FuzzDecodePartial(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "partial_*.golden"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden seeds: %v", err)
	}
	for _, path := range goldens {
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	golden := samplePartial(rand.New(rand.NewSource(29))) // the layout of most golden frames
	f.Fuzz(func(t *testing.T, frame []byte) {
		p, err := DecodePartialFrom(bytes.NewReader(frame))
		into, errInto := DecodePartialInto(bytes.NewReader(frame), dirtyLike(golden))
		if (err == nil) != (errInto == nil) {
			t.Fatalf("From: %v, Into: %v", err, errInto)
		}
		if err != nil {
			return
		}
		partialsEqual(t, p, into)
		own, err := DecodePartialInto(bytes.NewReader(frame), dirtyLike(p))
		if err != nil {
			t.Fatalf("Into a landing of the frame's own layout: %v", err)
		}
		partialsEqual(t, p, own)
		again, err := EncodePartial(p, WireOptions{Checksum: true})
		if err != nil {
			t.Fatalf("accepted partial does not re-encode: %v", err)
		}
		back, err := DecodePartialFrom(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded partial does not decode: %v", err)
		}
		partialsEqual(t, p, back)
	})
}

// TestPartialTruncatedAtChunkSeams cuts a multi-chunk checksummed frame
// on and around every conversion-chunk boundary and at every byte of
// the trailer. Each cut is a stream that died, not a corrupt frame: it
// must fail, and must not classify as corruption (the transport files
// it as a disconnect or a straggler, not as a poisoned region).
func TestPartialTruncatedAtChunkSeams(t *testing.T) {
	frame, err := EncodePartial(largePartial(), WireOptions{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int]bool{}
	for seam := 0; seam < len(frame); seam += core.WireChunk {
		for d := -9; d <= 9; d++ {
			cuts[seam+d] = true
		}
	}
	for back := 1; back <= 12; back++ {
		cuts[len(frame)-back] = true
	}
	for cut := range cuts {
		if cut < 0 || cut >= len(frame) {
			continue
		}
		_, err := DecodePartialFrom(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(frame))
		}
		if errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("truncation at %d/%d classified as corruption: %v", cut, len(frame), err)
		}
	}
	// One byte at a time, the same frame decodes: chunk seams do not
	// depend on how the source splits its reads.
	got, err := DecodePartialFrom(byteAtATime{bytes.NewReader(frame)})
	if err != nil {
		t.Fatalf("dribbled frame: %v", err)
	}
	partialsEqual(t, largePartial(), got)
}

// byteAtATime serves at most 7 bytes per Read.
type byteAtATime struct{ *bytes.Reader }

func (b byteAtATime) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return b.Reader.Read(p)
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestForgedLengthBoundedAllocation: a frame that declares a 1 GiB
// body and a 2^27-element entry but carries 1 KiB must fail after
// allocating a small bounded amount — the destination is staged
// against the bytes actually received.
func TestForgedLengthBoundedAllocation(t *testing.T) {
	body := binary.AppendUvarint(nil, 3) // updates
	body = binary.BigEndian.AppendUint64(body, 0x4059000000000000)
	body = binary.AppendUvarint(body, 1) // entries
	body = binary.AppendUvarint(body, 1)
	body = append(body, 'w', byte(model.Float32))
	body = binary.AppendUvarint(body, 1)     // rank
	body = binary.AppendUvarint(body, 1<<27) // 1 GiB of float64
	body = append(body, make([]byte, 1<<10)...)
	frame := binary.AppendUvarint([]byte{0}, 1<<30)
	frame = append(frame, body...)

	// A landing whose entry has the forged one's name but not its shape
	// vouches for nothing: the sums still allocate in stages.
	small := &orchestrator.Partial{Entries: []orchestrator.PartialEntry{
		{Name: "w", DType: model.Float32, Shape: []int{4}, Sums: make([]float64, 4)},
	}}
	for name, decode := range map[string]func() error{
		"From": func() error { _, err := DecodePartialFrom(bytes.NewReader(frame)); return err },
		"Into": func() error { _, err := DecodePartialInto(bytes.NewReader(frame), small); return err },
	} {
		var err error
		got := allocated(func() { err = decode() })
		if err == nil {
			t.Fatalf("%s: forged frame decoded", name)
		}
		if limit := uint64(2 << 20); got > limit {
			t.Fatalf("%s: forged 1 GiB length allocated %d B with 1 KiB present, want <= %d", name, got, limit)
		}
	}
}

// sizedPartial is one float64 entry of n elements.
func sizedPartial(n int) *orchestrator.Partial {
	sums := make([]float64, n)
	for i := range sums {
		sums[i] = float64(i) * 0.5
	}
	return &orchestrator.Partial{TotalWeight: 10, Updates: 2, Entries: []orchestrator.PartialEntry{
		{Name: "w", DType: model.Float32, Shape: []int{n}, Sums: sums},
	}}
}

// TestPartialCodecAllocationGates: streaming a partial allocates the
// same (near-zero) number of objects whatever the tensor size, and
// decoding one allocates at most 1.1x the payload it returns.
func TestPartialCodecAllocationGates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	opts := WireOptions{Checksum: true}
	small, large := sizedPartial(1<<10), sizedPartial(1<<21)
	encode := func(p *orchestrator.Partial) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := EncodePartialTo(io.Discard, p, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := encode(small), encode(large); l != s || l > 2 {
		t.Fatalf("EncodePartialTo allocs/op: %v for 8 KiB of sums, %v for 16 MiB; want equal and <= 2", s, l)
	}

	frame, err := EncodePartial(large, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePartialFrom(bytes.NewReader(frame)); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	payload := uint64(8 * len(large.Entries[0].Sums))
	got := allocated(func() {
		if _, err := DecodePartialFrom(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := payload + payload/10; got > limit {
		t.Fatalf("DecodePartialFrom allocated %d B for a %d B payload, want <= 1.1x", got, payload)
	}
}
