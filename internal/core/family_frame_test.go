package core

import (
	"bytes"
	"math/rand"
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// settingFamily registers a variant family that encodes at one
// non-default setting of base, under the name "base:setting", so a
// static pipeline can select that setting through Config.Lossy. The
// variant's decoder is base's: payloads are self-describing.
func settingFamily(base string, s lossy.Setting) string {
	name := base + ":" + s.String()
	fam, err := lossy.FamilyByName(base)
	if err != nil {
		panic(err)
	}
	if _, err := fam.Compressor(s); err != nil {
		panic(err)
	}
	lossy.MustRegisterFamilyVariant(lossy.NewSingle(name, fam.Bounded(s), func() lossy.Compressor {
		c, _ := fam.Compressor(s)
		return c
	}))
	return name
}

// Variant families at the non-default settings these tests encode with.
var (
	topkFrac10  = settingFamily("topk", lossy.Setting{Fraction: 0.1})
	qsgdBits6   = settingFamily("qsgd", lossy.Setting{Bits: 6})
	randkFrac25 = settingFamily("randk", lossy.Setting{Fraction: 0.25})
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
				if !fam.Bounded(lossy.Setting{}) {
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

// TestFamilyRegistryContract pins the registry split: Names() stays
// the Table I EBLC sweep while Families() spans every kind, and the
// zero Setting of every canonical family resolves (the frame-decode
// invariant — payloads name only the family).
func TestFamilyRegistryContract(t *testing.T) {
	names := lossy.Names()
	want := []string{"sz2", "sz3", "szx", "zfp"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	fams := lossy.Families()
	for _, required := range []string{"pred", "qsgd", "randk", "sz2", "sz3", "szx", "topk", "zfp"} {
		found := false
		for _, f := range fams {
			if f == required {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Families() = %v missing %q", fams, required)
		}
	}
	for _, name := range fams {
		if _, err := lossy.New(name); err != nil {
			t.Errorf("zero-setting compressor for %q: %v", name, err)
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

// TestEveryBoundedSettingHonoursTheBound: for every name the registry
// resolves, canonical families and variants alike, each grid setting
// whose Bounded is true reconstructs a seeded tensor at REL 1e-2 within
// the resolved absolute bound, through the zero-setting decoder frames
// use. Bounded is what lets a frame carry the global model, so a family
// that claims it without honouring it is caught here.
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
		dec, err := lossy.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range lossy.GridOf(fam) {
			if !fam.Bounded(s) {
				continue
			}
			c, err := fam.Compressor(s)
			if err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			buf, err := c.Compress(data, p)
			if err != nil {
				t.Fatalf("%s %v: compress: %v", name, s, err)
			}
			got, err := dec.Decompress(buf)
			if err != nil {
				t.Fatalf("%s %v: decompress: %v", name, s, err)
			}
			if len(got) != len(data) {
				t.Fatalf("%s %v: %d values back, want %d", name, s, len(got), len(data))
			}
			if maxErr := lossy.MaxAbsError(data, got); maxErr > eb {
				t.Errorf("%s %v claims the bound: max error %g > %g", name, s, maxErr, eb)
			}
		}
	}
}
