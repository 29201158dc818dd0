package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fedsz/internal/model"
)

// The reference kernels: one encoding/binary conversion per element,
// the definition of each run's wire byte order.

func refPutFloat32sLE(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:i*4+4], math.Float32bits(v))
	}
}

func refPutFloat64sBE(dst []byte, src []float64) {
	for i, v := range src {
		binary.BigEndian.PutUint64(dst[i*8:i*8+8], math.Float64bits(v))
	}
}

func refPutInt64sLE(dst []byte, src []int64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:i*8+8], uint64(v))
	}
}

func refPutInt64sBE(dst []byte, src []int64) {
	for i, v := range src {
		binary.BigEndian.PutUint64(dst[i*8:i*8+8], uint64(v))
	}
}

func refGetFloat32sLE(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4 : i*4+4]))
	}
}

func refGetFloat64sBE(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(src[i*8 : i*8+8]))
	}
}

func refGetInt64sLE(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[i*8 : i*8+8]))
	}
}

func refGetInt64sBE(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.BigEndian.Uint64(src[i*8 : i*8+8]))
	}
}

// wireRunCase is one typed run of the wire API next to its reference
// kernels. A test run starts with the edge-case values in specials and
// continues with random ones.
type wireRunCase[T wireElem] struct {
	put      func([]byte, []T)
	get      func([]T, []byte)
	write    func(*WireWriter, []T)
	read     func(*WireReader, int) ([]T, error)
	into     func(*WireReader, []T) error
	specials []T
	random   func(*rand.Rand) T
}

func float32sFromBits(bits ...uint32) []float32 {
	v := make([]float32, len(bits))
	for i, b := range bits {
		v[i] = math.Float32frombits(b)
	}
	return v
}

func float64sFromBits(bits ...uint64) []float64 {
	v := make([]float64, len(bits))
	for i, b := range bits {
		v[i] = math.Float64frombits(b)
	}
	return v
}

// TestWireRunsMatchReference pins every typed run against its
// reference kernels: lengths on and around a WireChunk seam and over
// several chunks, with the CRC on and off, and with and without staged
// bytes ahead of the run. The wire bytes and checksum must equal the
// reference's, and both the staged and the Into read must return the
// reference decode bit for bit. The float edge cases are the bit
// patterns a conversion could disturb: quiet, signalling and negative
// NaNs with payloads, -0, the extreme subnormals and both infinities.
func TestWireRunsMatchReference(t *testing.T) {
	t.Run("Float32sLE", func(t *testing.T) {
		checkWireRun(t, wireRunCase[float32]{
			put: refPutFloat32sLE, get: refGetFloat32sLE,
			write: (*WireWriter).Float32sLE, read: (*WireReader).Float32sLE, into: (*WireReader).Float32sLEInto,
			specials: float32sFromBits(0x7fc00000, 0x7f800001, 0xffc12345, 0x7fbfffff, 0x80000000,
				0x00000001, 0x807fffff, 0x7f800000, 0xff800000),
			random: func(rng *rand.Rand) float32 { return math.Float32frombits(rng.Uint32()) },
		})
	})
	t.Run("Float64sBE", func(t *testing.T) {
		checkWireRun(t, wireRunCase[float64]{
			put: refPutFloat64sBE, get: refGetFloat64sBE,
			write: (*WireWriter).Float64sBE, read: (*WireReader).Float64sBE, into: (*WireReader).Float64sBEInto,
			specials: float64sFromBits(0x7ff8000000000000, 0x7ff0000000000001, 0xfff123456789abcd,
				0x7ff7ffffffffffff, 0x8000000000000000, 0x0000000000000001, 0x800fffffffffffff,
				0x7ff0000000000000, 0xfff0000000000000),
			random: func(rng *rand.Rand) float64 { return math.Float64frombits(rng.Uint64()) },
		})
	})
	int64Specials := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 0x0102030405060708}
	int64Random := func(rng *rand.Rand) int64 { return int64(rng.Uint64()) }
	t.Run("Int64sLE", func(t *testing.T) {
		checkWireRun(t, wireRunCase[int64]{
			put: refPutInt64sLE, get: refGetInt64sLE,
			write: (*WireWriter).Int64sLE, read: (*WireReader).Int64sLE, into: (*WireReader).Int64sLEInto,
			specials: int64Specials, random: int64Random,
		})
	})
	t.Run("Int64sBE", func(t *testing.T) {
		checkWireRun(t, wireRunCase[int64]{
			put: refPutInt64sBE, get: refGetInt64sBE,
			write: (*WireWriter).Int64sBE, read: (*WireReader).Int64sBE,
			into:     func(wr *WireReader, dst []int64) error { return fillRun(wr, dst, false) }, // no exported Into
			specials: int64Specials, random: int64Random,
		})
	})
}

func checkWireRun[T wireElem](t *testing.T, c wireRunCase[T]) {
	_, width := wireView[T](nil)
	seam := WireChunk / width
	staged := []byte("staged")
	const tail = 0x5a
	rng := rand.New(rand.NewSource(int64(width)))
	for _, n := range []int{0, 1, seam - 1, seam, seam + 1, 3*seam + 5} {
		vals := make([]T, n)
		k := copy(vals, c.specials)
		for i := k; i < n; i++ {
			vals[i] = c.random(rng)
		}
		run := make([]byte, n*width)
		c.put(run, vals)
		// The reference decode of the run, which must also be vals bit
		// for bit: a float that moved through a register kept its NaN.
		want := make([]T, n)
		c.get(want, run)
		wantView, _ := wireView(want)
		if valsView, _ := wireView(vals); !bytes.Equal(wantView, valsView) {
			t.Fatalf("n=%d: the reference kernels do not round-trip", n)
		}
		for _, crcOn := range []bool{false, true} {
			for _, ahead := range [][]byte{nil, staged} {
				name := fmt.Sprintf("n=%d crc=%v staged=%v", n, crcOn, ahead != nil)
				image := append(append(append([]byte("pre"), ahead...), run...), tail)
				wantCRC := crc32.Checksum(image[3:], crcTable)

				var out bytes.Buffer
				ww := NewWireWriter(&out)
				ww.String("pre")
				if crcOn {
					ww.BeginCRC()
				}
				ww.Bytes(ahead)
				c.write(ww, vals)
				ww.Byte(tail)
				var sum uint32
				if crcOn {
					sum = ww.EndCRC()
				}
				if err := ww.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), image) {
					t.Fatalf("%s: wire bytes differ from the reference", name)
				}
				if crcOn && sum != wantCRC {
					t.Fatalf("%s: writer CRC %08x, want %08x", name, sum, wantCRC)
				}

				for _, useInto := range []bool{false, true} {
					wr := NewWireReader(bytes.NewReader(image))
					if _, err := wr.Bytes(3); err != nil {
						t.Fatal(err)
					}
					if crcOn {
						wr.BeginCRC()
					}
					if _, err := wr.Bytes(len(ahead)); err != nil {
						t.Fatal(err)
					}
					var got []T
					var err error
					if useInto {
						got = make([]T, n)
						err = c.into(wr, got)
					} else {
						got, err = c.read(wr, n)
					}
					if err != nil {
						t.Fatalf("%s into=%v: %v", name, useInto, err)
					}
					if b, err := wr.ReadByte(); err != nil || b != tail {
						t.Fatalf("%s into=%v: read past the run: %x, %v", name, useInto, b, err)
					}
					if sum := wr.EndCRC(); crcOn && sum != wantCRC {
						t.Fatalf("%s into=%v: reader CRC %08x, want %08x", name, useInto, sum, wantCRC)
					}
					wr.Release()
					if gotView, _ := wireView(got); len(got) != n || !bytes.Equal(gotView, wantView) {
						t.Fatalf("%s into=%v: decoded values differ from the reference", name, useInto)
					}
				}
			}
		}
	}
}

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

// TestMarshalStateDictToConcurrent marshals one dict to four writers
// from four goroutines, as a server's raw broadcast does: each writer
// is handed the tensors' own storage, so this is the race the
// detector must see if the marshal ever wrote to it.
func TestMarshalStateDictToConcurrent(t *testing.T) {
	sd := largeStateDict(t)
	want, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	var outs [4]bytes.Buffer
	var errs [4]error
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = MarshalStateDictTo(&outs[i], sd)
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i].Bytes(), want) {
			t.Fatalf("writer %d: bytes differ from MarshalStateDict", i)
		}
	}
}

// TestUnmarshalStateDictForgedShape: a shape whose element product
// wraps int, or whose name length wraps the bounds check, is corrupt
// to the whole-buffer decoder as it is to the stream decoder under it —
// not a valid empty tensor, and not a panic.
func TestUnmarshalStateDictForgedShape(t *testing.T) {
	entry := func(name string, dims ...uint64) []byte {
		f := []byte(serializeMagic)
		f = binary.AppendUvarint(f, 1)
		f = appendString(f, name)
		f = append(f, byte(model.Float32))
		f = binary.AppendUvarint(f, uint64(len(dims)))
		for _, d := range dims {
			f = binary.AppendUvarint(f, d)
		}
		return f
	}
	forged := map[string][]byte{
		"product wraps to zero":  entry("w", 1<<32, 1<<32),
		"dimension above int":    entry("w", 1<<63, 2),
		"product past the cap":   entry("w", 1<<15, 1<<15),
		"name length wraps":      append(binary.AppendUvarint([]byte(serializeMagic+"\x01"), math.MaxUint64), "w\x01"...),
		"name length is the end": append(binary.AppendUvarint([]byte(serializeMagic+"\x01"), 1), "w"...),
	}
	for name, f := range forged {
		sd, err := UnmarshalStateDict(f)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: UnmarshalStateDict returned %v (%d entries), want ErrCorrupt", name, err, dictLen(sd))
		}
		if _, err := UnmarshalStateDictFrom(bytes.NewReader(f)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: UnmarshalStateDictFrom returned %v, want ErrCorrupt", name, err)
		}
	}
}

func dictLen(sd *model.StateDict) int {
	if sd == nil {
		return 0
	}
	return sd.Len()
}
