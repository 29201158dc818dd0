package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"fedsz/internal/model"
)

// TestMarshalStateDictToZeroAllocs gates the streaming marshal: headers
// and tensor data go through one pooled scratch, so a steady-state
// broadcast allocates nothing, whatever the tensor sizes.
func TestMarshalStateDictToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	sd := largeStateDict(t)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := MarshalStateDictTo(io.Discard, sd); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("MarshalStateDictTo: %v allocs/op, want 0", allocs)
	}
}

// TestUnmarshalStateDictStreamTruncations cuts a multi-chunk state dict
// on and around every conversion-chunk boundary: each prefix fails as
// corrupt (io.EOF for the empty one), and the same bytes dribbled a few
// at a time decode.
func TestUnmarshalStateDictStreamTruncations(t *testing.T) {
	sd := largeStateDict(t)
	buf, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	cuts := map[int]bool{0: true, 3: true, len(buf) - 1: true}
	for seam := WireChunk; seam < len(buf); seam += WireChunk {
		for d := -5; d <= 5; d++ {
			cuts[seam+d] = true
		}
	}
	for cut := range cuts {
		_, err := UnmarshalStateDictFrom(bytes.NewReader(buf[:cut]))
		switch {
		case cut == 0 && err != io.EOF:
			t.Fatalf("empty stream: got %v, want io.EOF", err)
		case cut > 0 && !errors.Is(err, ErrCorrupt):
			t.Fatalf("truncation at %d/%d: got %v, want ErrCorrupt", cut, len(buf), err)
		}
	}
	got, err := UnmarshalStateDictFrom(&dribble{r: bytes.NewReader(buf)})
	if err != nil {
		t.Fatalf("dribbled stream: %v", err)
	}
	assertDictsEqual(t, sd, got, 0)
}

// dribble serves at most 7 bytes per Read and no ReadByte, forcing the
// parser through its own buffering.
type dribble struct{ r io.Reader }

func (d *dribble) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return d.r.Read(p)
}

// TestUnmarshalStateDictForgedLength: a 2^28-element tensor declared
// over 1 KiB of data fails after a small bounded allocation, and an
// honest multi-MB tensor costs at most 1.1x its size.
func TestUnmarshalStateDictForgedLength(t *testing.T) {
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	f := []byte(serializeMagic)
	f = binary.AppendUvarint(f, 1)
	f = appendString(f, "w.weight")
	f = append(f, byte(model.Float32))
	f = binary.AppendUvarint(f, 1)
	f = binary.AppendUvarint(f, maxStreamElems) // 1 GiB of float32
	f = append(f, make([]byte, 1<<10)...)
	var err error
	got := allocated(func() { _, err = UnmarshalStateDictFrom(bytes.NewReader(f)) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("forged length: got %v, want ErrCorrupt", err)
	}
	if limit := uint64(2 << 20); got > limit {
		t.Fatalf("forged 1 GiB tensor allocated %d B with 1 KiB present, want <= %d", got, limit)
	}

	if raceEnabled {
		return // the pooled scratch is reallocated at random under -race
	}
	// Large enough that the staged allocation shows and the one pooled
	// scratch (which a GC may have reclaimed) does not.
	buf, err := MarshalStateDict(fsd1Dict(t, 43, [][]int{{1 << 21}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStateDictFrom(bytes.NewReader(buf)); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	got = allocated(func() {
		if _, err := UnmarshalStateDictFrom(bytes.NewReader(buf)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(len(buf)) * 11 / 10; got > limit {
		t.Fatalf("honest %d B state dict allocated %d B, want <= 1.1x", len(buf), got)
	}
}

// TestWireCRCMatchesWholeBuffer: the checksum a WireWriter folds in per
// chunk, and the one a WireReader folds in on the way back, equal the
// CRC32C of the bytes between BeginCRC and EndCRC — whatever straddles
// a flush.
func TestWireCRCMatchesWholeBuffer(t *testing.T) {
	vals := make([]float64, 3*WireChunk/8+11)
	for i := range vals {
		vals[i] = float64(i) * 1.25
	}
	var out bytes.Buffer
	ww := NewWireWriter(&out)
	ww.String("outside")
	ww.BeginCRC()
	ww.Uvarint(uint64(len(vals)))
	ww.Float64sBE(vals)
	ww.Int64sBE([]int64{-1, 2})
	sum := ww.EndCRC()
	ww.Uint32BE(sum)
	if err := ww.Close(); err != nil {
		t.Fatal(err)
	}
	covered := out.Bytes()[len("outside") : out.Len()-4]
	if want := crc32.Checksum(covered, crcTable); sum != want {
		t.Fatalf("writer CRC %08x, want %08x", sum, want)
	}

	wr := NewWireReader(bytes.NewReader(out.Bytes()))
	defer wr.Release()
	if _, err := wr.Bytes(len("outside")); err != nil {
		t.Fatal(err)
	}
	wr.BeginCRC()
	n, err := wr.Uvarint()
	if err != nil || n != uint64(len(vals)) {
		t.Fatalf("count %d, err %v", n, err)
	}
	back, err := wr.Float64sBE(int(n))
	if err != nil {
		t.Fatal(err)
	}
	ints, err := wr.Int64sBE(2)
	if err != nil || ints[0] != -1 || ints[1] != 2 {
		t.Fatalf("ints %v, err %v", ints, err)
	}
	if got := wr.EndCRC(); got != sum {
		t.Fatalf("reader CRC %08x, want %08x", got, sum)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("value %d: %v != %v", i, back[i], vals[i])
		}
	}
}
