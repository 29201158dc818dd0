package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStateDict builds a deterministic mini state dict exercising
// both frame sections: two lossy-path weight tensors, a small weight
// below threshold, a bias and integer metadata.
func goldenStateDict(t *testing.T) *model.StateDict {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	mk := func(shape ...int) *tensor.Tensor {
		n := 1
		for _, d := range shape {
			n *= d
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64()) * 0.1
		}
		tt, err := tensor.FromData(data, shape...)
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	sd := model.NewStateDict()
	entries := []model.Entry{
		{Name: "conv1.weight", DType: model.Float32, Tensor: mk(64, 16, 3, 3)},
		{Name: "conv1.bias", DType: model.Float32, Tensor: mk(64)},
		{Name: "fc.weight", DType: model.Float32, Tensor: mk(40, 100)},
		{Name: "norm.weight", DType: model.Float32, Tensor: mk(8)},
		{Name: "norm.num_batches_tracked", DType: model.Int64, Ints: []int64{12345}},
	}
	for _, e := range entries {
		if err := sd.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return sd
}

// TestGoldenBitstream pins the end-to-end FedSZ frame format: the full
// pipeline (frame + sz2 + blosclz metadata) must emit byte-identical
// streams across refactors, and committed streams must keep decoding.
func TestGoldenBitstream(t *testing.T) {
	sd := goldenStateDict(t)
	p, err := NewPipeline(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.Compress(sd)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	path := filepath.Join("testdata", "frame.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pipeline frame diverged from golden wire format (%d vs %d bytes)", len(got), len(want))
	}
	out, err := Decompress(want)
	if err != nil {
		t.Fatalf("decompress golden: %v", err)
	}
	if out.Len() != sd.Len() {
		t.Fatalf("decoded %d entries, want %d", out.Len(), sd.Len())
	}
	for i, e := range out.Entries() {
		if e.Name != sd.Entries()[i].Name {
			t.Fatalf("entry %d: name %q want %q", i, e.Name, sd.Entries()[i].Name)
		}
	}
}

// fsd1Dict builds a deterministic state dict of the given float tensor
// shapes (named t0, t1, …) followed by integer entries (i0, i1, …).
func fsd1Dict(t testing.TB, seed int64, shapes [][]int, ints [][]int64) *model.StateDict {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sd := model.NewStateDict()
	add := func(e model.Entry) {
		if err := sd.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	for i, shape := range shapes {
		n := 1
		for _, d := range shape {
			n *= d
		}
		data := make([]float32, n)
		for j := range data {
			data[j] = float32(rng.NormFloat64())
		}
		tt, err := tensor.FromData(data, shape...)
		if err != nil {
			t.Fatal(err)
		}
		add(model.Entry{Name: fmt.Sprintf("t%d.weight", i), DType: model.Float32, Tensor: tt})
	}
	for i, v := range ints {
		add(model.Entry{Name: fmt.Sprintf("i%d", i), DType: model.Int64, Ints: v})
	}
	return sd
}

// smallStateDict is the fully committed FSD1 golden: a matrix, a
// vector, a scalar-shaped tensor and two integer entries.
func smallStateDict(t testing.TB) *model.StateDict {
	return fsd1Dict(t, 31, [][]int{{7, 5}, {7}, {1}}, [][]int64{{12345}, {-1, 0, 1 << 40}})
}

// largeStateDict has tensors and an integer entry several conversion
// chunks long (none a multiple of the chunk), so a streaming marshal's
// chunk seams land inside the data the digest pins.
func largeStateDict(t testing.TB) *model.StateDict {
	ints := make([]int64, 2*8192+9)
	for i := range ints {
		ints[i] = int64(i)*1_000_000_007 - (1 << 44)
	}
	return fsd1Dict(t, 37, [][]int{{211, 197}, {197}, {16384 + 3, 2}}, [][]int64{ints})
}

// TestGoldenStateDict pins the FSD1 state-dict encoding: the buffer
// marshal and the streaming writer must both emit the committed bytes
// (generated by the pre-streaming encoder), and both decoders must read
// them back. The multi-chunk dict is pinned by SHA-256 so the
// repository does not carry it.
func TestGoldenStateDict(t *testing.T) {
	check := func(name string, sd *model.StateDict, digest bool) {
		buf, err := MarshalStateDict(sd)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var streamed bytes.Buffer
		if err := MarshalStateDictTo(&streamed, sd); err != nil {
			t.Fatalf("%s: stream marshal: %v", name, err)
		}
		if !bytes.Equal(buf, streamed.Bytes()) {
			t.Fatalf("%s: MarshalStateDictTo diverged from MarshalStateDict", name)
		}
		pinned := buf
		path := filepath.Join("testdata", name+".golden")
		if digest {
			sum := sha256.Sum256(buf)
			pinned = []byte(hex.EncodeToString(sum[:]) + "\n")
			path = filepath.Join("testdata", name+".sha256")
		}
		if *updateGolden {
			if err := os.WriteFile(path, pinned, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (run with -update): %v", err)
		}
		if !bytes.Equal(pinned, want) {
			t.Fatalf("%s: FSD1 encoding diverged from golden wire format", name)
		}
		fromBuf, err := UnmarshalStateDict(buf)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		fromStream, err := UnmarshalStateDictFrom(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%s: stream unmarshal: %v", name, err)
		}
		for _, got := range []*model.StateDict{fromBuf, fromStream} {
			again, err := MarshalStateDict(got)
			if err != nil || !bytes.Equal(again, buf) {
				t.Fatalf("%s: decoded dict does not re-marshal to the golden bytes (err %v)", name, err)
			}
		}
	}
	check("fsd1_small", smallStateDict(t), false)
	check("fsd1_large", largeStateDict(t), true)
}
