package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// adaptiveStateDict builds a deterministic dict with four lossy-path
// tensors (one per built-in compressor in the stub plans) plus
// metadata entries.
func adaptiveStateDict(t *testing.T) *model.StateDict {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	mk := func(n int) *tensor.Tensor {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64()) * 0.05
		}
		tt, err := tensor.FromData(data, n)
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	sd := model.NewStateDict()
	entries := []model.Entry{
		{Name: "a.weight", DType: model.Float32, Tensor: mk(3000)},
		{Name: "b.weight", DType: model.Float32, Tensor: mk(2048)},
		{Name: "c.weight", DType: model.Float32, Tensor: mk(1500)},
		{Name: "d.weight", DType: model.Float32, Tensor: mk(4096)},
		{Name: "d.bias", DType: model.Float32, Tensor: mk(64)},
		{Name: "steps", DType: model.Int64, Ints: []int64{77}},
	}
	for _, e := range entries {
		if err := sd.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return sd
}

// adaptiveGoldenBounds is the REL bound each lossy tensor of
// testdata/adaptive_frame.golden was encoded at: one tensor per Table I
// compressor, as the deleted per-tensor selector chose them.
var adaptiveGoldenBounds = map[string]float64{
	"a.weight": 1e-2, // sz2
	"b.weight": 1e-3, // sz3
	"c.weight": 1e-2, // szx
	"d.weight": 1e-2, // zfp
}

// TestAdaptiveCompressStreamEquivalence pins that a frame encoded
// through the registered "adaptive" name is byte-identical between the
// whole-buffer and streaming encoders at any parallelism, and
// round-trips through both decode paths within the bound.
func TestAdaptiveCompressStreamEquivalence(t *testing.T) {
	sd := adaptiveStateDict(t)
	var frames [][]byte
	for _, par := range []int{1, 4} {
		p, err := NewPipeline(Config{Parallelism: par, Lossy: lossy.NameAdaptive})
		if err != nil {
			t.Fatal(err)
		}
		buf, _, err := p.Compress(sd)
		if err != nil {
			t.Fatal(err)
		}
		var streamBuf bytes.Buffer
		if _, err := p.CompressTo(&streamBuf, sd); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, streamBuf.Bytes()) {
			t.Fatalf("parallelism %d: Compress and CompressTo diverge (%d vs %d bytes)", par, len(buf), streamBuf.Len())
		}
		frames = append(frames, buf)
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Fatalf("adaptive frame differs across parallelism (%d vs %d bytes)", len(frames[0]), len(frames[1]))
	}

	bounds := make(map[string]float64, len(adaptiveGoldenBounds))
	for name := range adaptiveGoldenBounds {
		bounds[name] = DefaultBound
	}
	for _, decode := range []func([]byte) (*model.StateDict, error){
		Decompress,
		func(b []byte) (*model.StateDict, error) { return DecompressFrom(bytes.NewReader(b), 1) },
	} {
		out, err := decode(frames[0])
		if err != nil {
			t.Fatal(err)
		}
		checkAdaptiveBounds(t, sd, out, bounds)
	}
}

// checkAdaptiveBounds verifies each named lossy tensor against its REL
// bound.
func checkAdaptiveBounds(t *testing.T, orig, got *model.StateDict, bounds map[string]float64) {
	t.Helper()
	gotEntries := got.Entries()
	for i, e := range orig.Entries() {
		rel, ok := bounds[e.Name]
		if !ok {
			continue
		}
		od, gd := e.Tensor.Data(), gotEntries[i].Tensor.Data()
		mn, mx := stats.MinMaxF32(od)
		abs := rel * float64(mx-mn)
		if err := lossy.MaxAbsError(od, gd); err > abs*(1+1e-6) {
			t.Errorf("tensor %q: max error %g beyond bound %g", e.Name, err, abs)
		}
	}
}

// TestAdaptiveGoldenFrame pins that the committed adaptive frame — one
// section per Table I compressor, each at its own bound — keeps
// decoding through the standard streaming decoder, exactly as a
// receiver would, within every tensor's bound. It is a decode-only
// fixture: nothing in the module encodes per-tensor choices any more.
func TestAdaptiveGoldenFrame(t *testing.T) {
	sd := adaptiveStateDict(t)
	want, err := os.ReadFile(filepath.Join("testdata", "adaptive_frame.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecompressFrom(bytes.NewReader(want), 0)
	if err != nil {
		t.Fatalf("decode golden adaptive frame: %v", err)
	}
	if out.Len() != sd.Len() {
		t.Fatalf("decoded %d entries, want %d", out.Len(), sd.Len())
	}
	for i, e := range out.Entries() {
		want := sd.Entries()[i]
		if e.Name != want.Name {
			t.Fatalf("entry %d: name %q want %q", i, e.Name, want.Name)
		}
		if e.DType == model.Float32 && e.Tensor.NumElements() != want.Tensor.NumElements() {
			t.Fatalf("entry %q: %d elements, want %d", e.Name, e.Tensor.NumElements(), want.Tensor.NumElements())
		}
	}
	checkAdaptiveBounds(t, sd, out, adaptiveGoldenBounds)
}

// TestAdaptiveRegistryCompressor exercises the registered "adaptive"
// name end to end — the path a frame header naming it drives on any
// decoder — including unknown-inner-name rejection. It lives here
// rather than in package lossy because the built-in suite registers
// from this package's imports.
func TestAdaptiveRegistryCompressor(t *testing.T) {
	c, err := lossy.New(lossy.NameAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, 4096)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	buf, err := c.Compress(data, lossy.RelBound(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	mn, mx := stats.MinMaxF32(data)
	if e := lossy.MaxAbsError(data, dec); e > 1e-2*float64(mx-mn)*(1+1e-6) {
		t.Fatalf("max error %g beyond bound", e)
	}
	if _, err := c.Decompress(lossy.WrapAdaptive("no-such", []byte{1, 2})); err == nil {
		t.Fatal("unknown inner name decompressed without error")
	}
}

// TestAdaptiveFrameOverheadBounded sanity-checks the wrapper overhead:
// a frame encoded through the "adaptive" name, which wraps sz2 in every
// section, costs only the per-section name wrappers more than the
// static sz2 frame.
func TestAdaptiveFrameOverheadBounded(t *testing.T) {
	sd := adaptiveStateDict(t)
	var sizes []int
	for _, name := range []string{LossySZ2, lossy.NameAdaptive} {
		p, err := NewPipeline(Config{Parallelism: 1, Lossy: name})
		if err != nil {
			t.Fatal(err)
		}
		buf, _, err := p.Compress(sd)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(buf))
	}
	overhead := sizes[1] - sizes[0]
	perSection := 1 + len(LossySZ2)                                         // uvarint name length + name
	maxOverhead := 4*perSection + (len(lossy.NameAdaptive) - len(LossySZ2)) // sections + header name delta
	if overhead < 0 || overhead > maxOverhead {
		t.Fatalf("adaptive overhead %d bytes outside [0, %d]", overhead, maxOverhead)
	}
}
