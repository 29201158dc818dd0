package fl

import (
	"bytes"
	"math"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/tensor"
)

func deltaTestDicts(t *testing.T) (a, b *model.StateDict) {
	t.Helper()
	mk := func(vals []float32) *model.StateDict {
		sd := model.NewStateDict()
		tr, err := tensor.FromData(append([]float32(nil), vals...), len(vals))
		if err != nil {
			t.Fatal(err)
		}
		if err := sd.Add(model.Entry{Name: "w.weight", DType: model.Float32, Tensor: tr}); err != nil {
			t.Fatal(err)
		}
		if err := sd.Add(model.Entry{Name: "n", DType: model.Int64, Ints: []int64{5}}); err != nil {
			t.Fatal(err)
		}
		return sd
	}
	return mk([]float32{1, 2, 3}), mk([]float32{0.5, 2, 4})
}

func TestDiffAddDeltaInverse(t *testing.T) {
	a, b := deltaTestDicts(t)
	delta, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := delta.Get("w.weight")
	want := []float32{0.5, 0, -1}
	for i := range want {
		if e.Tensor.Data()[i] != want[i] {
			t.Fatalf("delta = %v", e.Tensor.Data())
		}
	}
	back, err := AddDelta(b, delta)
	if err != nil {
		t.Fatal(err)
	}
	be, _ := back.Get("w.weight")
	ae, _ := a.Get("w.weight")
	for i := range ae.Tensor.Data() {
		if math.Abs(float64(be.Tensor.Data()[i]-ae.Tensor.Data()[i])) > 1e-6 {
			t.Fatalf("AddDelta(Diff) != identity: %v", be.Tensor.Data())
		}
	}
}

func TestDiffStructureMismatch(t *testing.T) {
	a, _ := deltaTestDicts(t)
	other := model.NewStateDict()
	if _, err := Diff(a, other); err == nil {
		t.Fatal("expected structure mismatch error")
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	ref := nn.AlexNetMini(128, 8, 1).StateDict()
	trained := nn.AlexNetMini(128, 8, 2).StateDict() // different values

	c := NewDeltaCodec(nil)
	if c.Name() != "delta+plain" {
		t.Fatalf("name %q", c.Name())
	}
	if _, _, err := encode(c, trained); err == nil {
		t.Fatal("expected error without reference")
	}
	if _, err := c.DecodeFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected decode error without reference")
	}
	c.SetReference(ref)
	buf, _, err := encode(c, trained)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeFrom(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	gotE, _ := got.Get("features.0.weight")
	wantE, _ := trained.Get("features.0.weight")
	for i := range wantE.Tensor.Data() {
		if math.Abs(float64(gotE.Tensor.Data()[i]-wantE.Tensor.Data()[i])) > 1e-6 {
			t.Fatal("delta round trip diverged")
		}
	}
}

// TestDeltaFedSZFederation composes delta coding with FedSZ in the
// simulation loop and checks accuracy stays comparable to plain FedSZ
// at the same bound.
func TestDeltaFedSZFederation(t *testing.T) {
	base := SimConfig{
		Dataset:          dataset.FashionMNIST(),
		Clients:          2,
		Rounds:           8,
		SamplesPerClient: 80,
		TestSamples:      100,
		Seed:             9,
	}
	fedszCodec, err := NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	plainCfg := base
	plainCfg.Codec = fedszCodec
	plain, err := RunSim(plainCfg)
	if err != nil {
		t.Fatal(err)
	}

	deltaCfg := base
	deltaCfg.Codec = NewDeltaCodec(fedszCodec)
	delta, err := RunSim(deltaCfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(plain.FinalAccuracy() - delta.FinalAccuracy()); diff > 0.3 {
		t.Fatalf("delta+fedsz accuracy %.3f deviates from fedsz %.3f by %.3f",
			delta.FinalAccuracy(), plain.FinalAccuracy(), diff)
	}
	if delta.FinalAccuracy() <= 0.2 {
		t.Fatalf("delta federation accuracy %.3f did not learn", delta.FinalAccuracy())
	}
}
