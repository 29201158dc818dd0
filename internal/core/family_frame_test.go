package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"fedsz/internal/family"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// settingFamily registers, under name, an unbounded variant family
// whose compressor build returns (a constructor's non-default
// setting), so a static pipeline can select it through Config.Lossy.
// Its payloads decode like the registered family's: they are
// self-describing.
func settingFamily(name string, build func() (lossy.Compressor, error)) string {
	c, err := build()
	if err != nil {
		panic(err)
	}
	lossy.MustRegisterFamilyVariant(lossy.Family{Name: name, New: func() lossy.Compressor { return c }})
	return name
}

// Variant families at the non-default settings these tests encode with.
var (
	topkFrac10  = settingFamily("topk:frac=0.1", func() (lossy.Compressor, error) { return family.TopK(0.1) })
	randkFrac25 = settingFamily("randk:frac=0.25", func() (lossy.Compressor, error) { return family.RandK(0.25) })
)

// frameFamilies spans the sparsifying, quantizing and predictor
// families: bounded defaults (pred, derived-width qsgd, threshold topk)
// and an unbounded fractional setting.
var frameFamilies = []string{"topk", "qsgd", "pred", randkFrac25}

// TestFamilyFrameRoundTrip pins that frames whose sections come from
// the sparsifying, quantizing and predictor families decode through
// both whole-buffer and streaming decoders, honour the bound for
// bound-guaranteed families, and stay byte-identical between Compress
// and CompressTo at any parallelism.
func TestFamilyFrameRoundTrip(t *testing.T) {
	sd := adaptiveStateDict(t)
	for _, famName := range frameFamilies {
		var frames [][]byte
		for _, par := range []int{1, 4} {
			p, err := NewPipeline(Config{Parallelism: par, Lossy: famName})
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
				t.Fatalf("%s, parallelism %d: frame differs between Compress and CompressTo", famName, par)
			}
			frames = append(frames, buf)
		}
		if !bytes.Equal(frames[0], frames[1]) {
			t.Fatalf("%s: frame differs across parallelism", famName)
		}
		fam, err := lossy.FamilyByName(famName)
		if err != nil {
			t.Fatal(err)
		}

		for _, decode := range []func([]byte) (*model.StateDict, error){
			Decompress,
			func(b []byte) (*model.StateDict, error) { return DecompressFrom(bytes.NewReader(b), 2) },
		} {
			out, err := decode(frames[0])
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != sd.Len() {
				t.Fatalf("%s: decoded %d entries, want %d", famName, out.Len(), sd.Len())
			}
			gotEntries := out.Entries()
			for i, e := range sd.Entries() {
				if !e.IsWeightNamed() || e.NumElements() <= DefaultThreshold {
					continue
				}
				od, gd := e.Tensor.Data(), gotEntries[i].Tensor.Data()
				if len(od) != len(gd) {
					t.Fatalf("%s: tensor %q: decoded %d elements, want %d", famName, e.Name, len(gd), len(od))
				}
				if !fam.Bounded {
					continue // rand-k at a fixed fraction guarantees shape, not error
				}
				mn, mx := stats.MinMaxF32(od)
				abs := DefaultBound * float64(mx-mn)
				if err := lossy.MaxAbsError(od, gd); err > abs*(1+1e-6) {
					t.Errorf("%s: tensor %q: max error %g beyond bound %g", famName, e.Name, err, abs)
				}
			}
		}
	}
}

// TestFamilyFrameDeterministic pins byte determinism of the families
// end to end: two independent pipelines over the same input emit
// identical frames (rand-k's pseudo-random selection included — it
// must derive from the data, not from process state).
func TestFamilyFrameDeterministic(t *testing.T) {
	sd := adaptiveStateDict(t)
	for _, famName := range frameFamilies {
		var frames [][]byte
		for i := 0; i < 2; i++ {
			p, err := NewPipeline(Config{Parallelism: 2, Lossy: famName})
			if err != nil {
				t.Fatal(err)
			}
			buf, _, err := p.Compress(sd)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, buf)
		}
		if !bytes.Equal(frames[0], frames[1]) {
			t.Fatalf("%s: frames differ across identical pipelines", famName)
		}
	}
}

// TestFamilyRegistryContract pins the registry listing: Families()
// spans every built-in family and omits the variants, and every name it
// lists encodes — a small tensor compresses through a frame and decodes
// on a receiver with no configuration, within the bound when the family
// claims it.
func TestFamilyRegistryContract(t *testing.T) {
	fams := lossy.Families()
	for _, required := range []string{"pred", "qsgd", "randk", "sz2", "sz3", "szx", "topk", "zfp"} {
		if !slices.Contains(fams, required) {
			t.Errorf("Families() = %v missing %q", fams, required)
		}
	}
	for _, variant := range []string{lossy.NameAdaptive, LossySZxArtifact, topkFrac10} {
		if slices.Contains(fams, variant) {
			t.Errorf("Families() = %v lists the variant %q", fams, variant)
		}
		if _, err := lossy.New(variant); err != nil {
			t.Errorf("variant %q does not resolve: %v", variant, err)
		}
	}

	rng := rand.New(rand.NewSource(9))
	data := make([]float32, 3000)
	for i := range data {
		data[i] = float32(rng.NormFloat64() * 0.05)
	}
	tt, err := tensor.FromData(data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	sd := model.NewStateDict()
	if err := sd.Add(model.Entry{Name: "w.weight", DType: model.Float32, Tensor: tt}); err != nil {
		t.Fatal(err)
	}
	mn, mx := stats.MinMaxF32(data)
	abs := DefaultBound * float64(mx-mn)
	for _, name := range fams {
		fam, err := lossy.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPipeline(Config{Parallelism: 1, Lossy: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var frame bytes.Buffer
		if _, err := p.CompressTo(&frame, sd); err != nil {
			t.Errorf("%s: compress: %v", name, err)
			continue
		}
		out, err := DecompressFrom(bytes.NewReader(frame.Bytes()), 0)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		e, ok := out.Get("w.weight")
		if !ok || e.Tensor.NumElements() != len(data) {
			t.Errorf("%s: the tensor did not round-trip", name)
			continue
		}
		if fam.Bounded {
			if err := lossy.MaxAbsError(data, e.Tensor.Data()); err > abs*(1+1e-6) {
				t.Errorf("%s: max error %g beyond bound %g", name, err, abs)
			}
		}
	}
}

// TestFamilyFrameForeignReceiver pins that a frame from each of three
// kinds decodes on a receiver with no configuration at all, via the
// plain registry lookup — the wire-compatibility guarantee.
func TestFamilyFrameForeignReceiver(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float32, 2000)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	tt, err := tensor.FromData(data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	sd := model.NewStateDict()
	if err := sd.Add(model.Entry{Name: "w.weight", DType: model.Float32, Tensor: tt}); err != nil {
		t.Fatal(err)
	}
	for _, famName := range []string{"topk", "qsgd", "pred"} {
		p, err := NewPipeline(Config{Parallelism: 1, Lossy: famName})
		if err != nil {
			t.Fatal(err)
		}
		buf, _, err := p.Compress(sd)
		if err != nil {
			t.Fatalf("%s: %v", famName, err)
		}
		out, err := DecompressFrom(bytes.NewReader(buf), 0)
		if err != nil {
			t.Fatalf("%s: foreign receiver decode: %v", famName, err)
		}
		e, ok := out.Get("w.weight")
		if !ok || e.Tensor.NumElements() != len(data) {
			t.Fatalf("%s: foreign receiver lost the tensor", famName)
		}
	}
}

// TestEveryBoundedSettingHonoursTheBound: every name the registry
// resolves, canonical families and variants alike, whose Bounded is
// true reconstructs a seeded tensor at REL 1e-2 within the resolved
// absolute bound. Bounded is what lets a frame carry the global model,
// so a family that claims it without honouring it is caught here.
func TestEveryBoundedSettingHonoursTheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]float32, 8192)
	for i := range data {
		v := rng.NormFloat64() * 0.05
		if rng.Float64() < 0.01 {
			v *= 20
		}
		data[i] = float32(v)
	}
	p := lossy.RelBound(1e-2)
	eb, err := p.Resolve(data)
	if err != nil {
		t.Fatal(err)
	}
	names := append(lossy.Families(), lossy.NameAdaptive, LossySZxArtifact)
	for _, name := range names {
		fam, err := lossy.FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !fam.Bounded {
			continue
		}
		c := fam.New()
		buf, err := c.Compress(data, p)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		got, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if len(got) != len(data) {
			t.Fatalf("%s: %d values back, want %d", name, len(got), len(data))
		}
		if maxErr := lossy.MaxAbsError(data, got); maxErr > eb {
			t.Errorf("%s claims the bound: max error %g > %g", name, maxErr, eb)
		}
	}
}
