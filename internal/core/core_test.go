package core

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

func testDict(t *testing.T) *model.StateDict {
	t.Helper()
	return model.BuildStateDict(model.MobileNetV2(8), 42)
}

func TestMarshalUnmarshalStateDict(t *testing.T) {
	sd := testDict(t)
	blob, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalStateDict(blob)
	if err != nil {
		t.Fatal(err)
	}
	assertDictsEqual(t, sd, got, 0)
}

func TestUnmarshalCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("FSD1"),
		[]byte{'F', 'S', 'D', '1', 0xff},
	}
	for i, c := range cases {
		if _, err := UnmarshalStateDict(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Truncated valid stream.
	blob, err := MarshalStateDict(testDict(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStateDict(blob[:len(blob)/2]); err == nil {
		t.Error("expected error for truncated stream")
	}
}

// A whole buffer must hold the dict and nothing else: a padded or
// spliced blob is corrupt, though a stream decoder would stop at the
// dict's end and leave the rest unread.
func TestUnmarshalStateDictRejectsTrailingBytes(t *testing.T) {
	sd := model.NewStateDict()
	if err := sd.Add(model.Entry{Name: "b", DType: model.Int64, Ints: []int64{7}}); err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalStateDict(sd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStateDict(blob); err != nil {
		t.Fatalf("the dict alone: %v", err)
	}
	if got, err := UnmarshalStateDict(append(blob, 0, 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("two bytes appended: %v (%d entries), want ErrCorrupt", err, dictLen(got))
	}
}

func TestPipelineRoundTrip(t *testing.T) {
	sd := testDict(t)
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf, st, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}

	// Entry order, names, shapes identical; lossy values within bound.
	assertDictsEqual(t, sd, got, DefaultBound)

	if st.Ratio() < 2 {
		t.Fatalf("ratio %.2f too low for REL 1e-2", st.Ratio())
	}
	if st.CompressedBytes != int64(len(buf)) {
		t.Fatal("stats size mismatch")
	}
	if st.NumLossyTensors == 0 || st.NumMetaEntries == 0 {
		t.Fatalf("partition degenerate: %+v", st)
	}
	if st.CompressTime <= 0 {
		t.Fatal("missing compress time")
	}
}

// suiteNames is the paper's Table I compressor suite plus SZx's
// paper-artifact mode.
var suiteNames = []string{LossySZ2, LossySZ3, LossySZx, LossyZFP, LossySZxArtifact}

func TestPipelineAllCompressors(t *testing.T) {
	sd := model.BuildStateDict(model.AlexNet(16), 3)
	for _, name := range suiteNames {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := NewPipeline(Config{Lossy: name})
			if err != nil {
				t.Fatal(err)
			}
			buf, st, err := p.Compress(sd)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decompress(buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != sd.Len() {
				t.Fatalf("entry count %d != %d", got.Len(), sd.Len())
			}
			if st.Ratio() <= 1 {
				t.Fatalf("%s ratio %.2f", name, st.Ratio())
			}
		})
	}
}

// TestCompressToRejectsNonFiniteTensor: under a REL bound, a lossy
// tensor holding +Inf used to resolve to an infinite bound, and the leaf
// sent a frame whose sz2 section the server's decoder rejects. CompressTo
// must fail at the leaf instead, naming the tensor, and Compress must
// return that error and no bytes, whichever section fails, at every
// width of the pool.
func TestCompressToRejectsNonFiniteTensor(t *testing.T) {
	sd := testDict(t)
	for _, par := range testParallelisms() {
		p, err := NewPipeline(Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range sd.Entries() {
			if p.shouldLossy(e) {
				names = append(names, e.Name)
			}
		}
		for _, name := range []string{names[0], names[len(names)/2], names[len(names)-1]} {
			e, _ := sd.Get(name)
			data := e.Tensor.Data()
			old := data[5]
			data[5] = float32(math.Inf(1))
			_, errTo := p.CompressTo(io.Discard, sd)
			buf, _, err := p.Compress(sd)
			data[5] = old
			// The call is over, so the caller may write sd: under -race a
			// worker still compressing another tensor fails here.
			for _, e := range sd.Entries() {
				if e.Tensor != nil {
					e.Tensor.Data()[0] = 0
				}
			}
			for _, err := range []error{errTo, err} {
				if !errors.Is(err, lossy.ErrInvalidParams) || !strings.Contains(err.Error(), name) {
					t.Fatalf("parallelism %d: error %v, want ErrInvalidParams naming %q", par, err, name)
				}
			}
			if buf != nil {
				t.Fatalf("parallelism %d: Compress returned %d bytes with its error", par, len(buf))
			}
		}
	}
}

func TestPartitionRule(t *testing.T) {
	p, err := NewPipeline(Config{Threshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	big := tensor.New(100)
	small := tensor.New(5)
	cases := []struct {
		e    model.Entry
		want bool
	}{
		{model.Entry{Name: "conv.weight", DType: model.Float32, Tensor: big}, true},
		{model.Entry{Name: "conv.weight", DType: model.Float32, Tensor: small}, false}, // under threshold
		{model.Entry{Name: "conv.bias", DType: model.Float32, Tensor: big}, false},     // not weight-named
		{model.Entry{Name: "bn.num_batches_tracked", DType: model.Int64, Ints: make([]int64, 100)}, false},
	}
	for i, tt := range cases {
		if got := p.shouldLossy(tt.e); got != tt.want {
			t.Errorf("case %d (%s): got %v want %v", i, tt.e.Name, got, tt.want)
		}
	}
}

func TestLossyFractionMatchesTable3(t *testing.T) {
	// Table III: AlexNet 99.98%, ResNet50 99.47%, MobileNetV2 96.94%.
	tests := []struct {
		arch   model.Arch
		lo, hi float64
	}{
		{model.AlexNet(1), 0.9995, 1.0},
		{model.ResNet50(1), 0.985, 0.999},
		{model.MobileNetV2(1), 0.95, 0.985},
	}
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		var lossyB, totalB int64
		for _, ae := range tt.arch.Entries {
			sz := int64(ae.NumElements()) * 4
			if ae.Kind == model.KindBNCount {
				sz = int64(ae.NumElements()) * 8
			}
			totalB += sz
			e := model.Entry{Name: ae.Name, DType: model.Float32, Tensor: tensor.New(ae.NumElements())}
			if ae.Kind == model.KindBNCount {
				e = model.Entry{Name: ae.Name, DType: model.Int64, Ints: make([]int64, ae.NumElements())}
			}
			if p.shouldLossy(e) {
				lossyB += sz
			}
		}
		frac := float64(lossyB) / float64(totalB)
		if frac < tt.lo || frac > tt.hi {
			t.Errorf("%s: lossy fraction %.4f outside [%.4f, %.4f]",
				tt.arch.Name, frac, tt.lo, tt.hi)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewPipeline(Config{Lossy: "nope"}); err == nil {
		t.Fatal("expected unknown lossy error")
	}
	if _, err := NewPipeline(Config{Lossless: "nope"}); err == nil {
		t.Fatal("expected unknown lossless error")
	}
	if _, err := NewPipeline(Config{Bound: lossy.AbsBound(-1)}); err == nil {
		t.Fatal("expected bound error")
	}
	if _, err := NewPipeline(Config{Threshold: -1}); err == nil {
		t.Fatal("expected threshold error")
	}
	if _, err := NewPipeline(Config{Parallelism: -1}); err == nil {
		t.Fatal("expected parallelism error")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := p.Compress(testDict(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(buf[:10]); err == nil {
		t.Fatal("expected truncation error")
	}
	if _, err := Decompress([]byte("not a stream")); err == nil {
		t.Fatal("expected magic error")
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 99
	if _, err := Decompress(bad); err == nil {
		t.Fatal("expected version error")
	}
	// A forged entry count in [2^63, 2^64) used to wrap negative on the
	// int conversion and panic on the tag slice; it must error instead.
	forged := []byte("FDSZ\x01")
	forged = appendString(forged, "sz2")
	forged = appendString(forged, "blosclz")
	forged = binary.AppendUvarint(forged, 1000)    // threshold
	forged = binary.AppendUvarint(forged, 1<<63)   // entry count
	forged = append(forged, make([]byte, 1024)...) // plausible body
	if _, err := Decompress(forged); err == nil {
		t.Fatal("expected entry-count error for forged count")
	}
}

func TestThresholdAblation(t *testing.T) {
	// Raising the threshold moves tensors from lossy to lossless,
	// reducing the ratio.
	sd := testDict(t)
	pLow, err := NewPipeline(Config{Threshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	pHigh, err := NewPipeline(Config{Threshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, stLow, err := pLow.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	_, stHigh, err := pHigh.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	if stHigh.NumLossyTensors >= stLow.NumLossyTensors {
		t.Fatalf("threshold should shrink lossy set: %d vs %d",
			stHigh.NumLossyTensors, stLow.NumLossyTensors)
	}
	if stHigh.Ratio() >= stLow.Ratio() {
		t.Fatalf("all-lossless ratio %.2f should be below mixed %.2f",
			stHigh.Ratio(), stLow.Ratio())
	}
}

func TestDecision(t *testing.T) {
	d := Decision{
		CompressTime:    time.Second,
		DecompressTime:  time.Second,
		OriginalBytes:   100e6,
		CompressedBytes: 10e6,
		BandwidthBps:    10e6, // 10 Mbps
	}
	if TransferTime(10e6, 10e6) != 8*time.Second {
		t.Fatal("10 MB over 10 Mbps must take 8 s")
	}
	// Uncompressed: 80s. Compressed: 2 + 8 = 10s.
	if !d.ShouldCompress() {
		t.Fatal("compression should win at 10 Mbps")
	}
	d.BandwidthBps = 10e9 // 10 Gbps: uncompressed 0.08s vs 2.008s
	if d.ShouldCompress() {
		t.Fatal("compression should lose at 10 Gbps")
	}
	cross := d.CrossoverBandwidthBps()
	want := float64(90e6*8) / 2.0
	if math.Abs(cross-want)/want > 1e-9 {
		t.Fatalf("crossover = %v, want %v", cross, want)
	}
}

func TestDecisionDegenerate(t *testing.T) {
	d := Decision{OriginalBytes: 10, CompressedBytes: 20, BandwidthBps: 1e6}
	if d.CrossoverBandwidthBps() != 0 {
		t.Fatal("no crossover when compression grows data")
	}
	if TransferTime(100, 0) != 0 {
		t.Fatal("zero bandwidth transfer time")
	}
}

// assertDictsEqual verifies structure equality and per-tensor value
// closeness: bound == 0 requires bit-exact floats; otherwise lossy
// (weight-named, above threshold) entries may deviate by bound×range.
func assertDictsEqual(t *testing.T, want, got *model.StateDict, bound float64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("entry count %d != %d", got.Len(), want.Len())
	}
	wantEntries := want.Entries()
	gotEntries := got.Entries()
	for i := range wantEntries {
		w, g := wantEntries[i], gotEntries[i]
		if w.Name != g.Name || w.DType != g.DType {
			t.Fatalf("entry %d: %q/%v != %q/%v", i, g.Name, g.DType, w.Name, w.DType)
		}
		if w.DType == model.Int64 {
			for j := range w.Ints {
				if w.Ints[j] != g.Ints[j] {
					t.Fatalf("entry %q int %d: %d != %d", w.Name, j, g.Ints[j], w.Ints[j])
				}
			}
			continue
		}
		ws, gs := w.Tensor.Shape(), g.Tensor.Shape()
		if len(ws) != len(gs) {
			t.Fatalf("entry %q shape rank", w.Name)
		}
		for j := range ws {
			if ws[j] != gs[j] {
				t.Fatalf("entry %q shape %v != %v", w.Name, gs, ws)
			}
		}
		wd, gd := w.Tensor.Data(), g.Tensor.Data()
		isLossy := w.IsWeightNamed() && len(wd) > DefaultThreshold
		tol := 0.0
		if bound > 0 && isLossy {
			mn, mx := wd[0], wd[0]
			for _, v := range wd {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			tol = bound * float64(mx-mn) * (1 + 1e-6)
		}
		for j := range wd {
			if diff := math.Abs(float64(wd[j]) - float64(gd[j])); diff > tol {
				t.Fatalf("entry %q value %d: |%v-%v| = %v > %v",
					w.Name, j, wd[j], gd[j], diff, tol)
			}
		}
	}
}
