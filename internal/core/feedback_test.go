package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// feedbackStateDict builds one weight tensor (lossy path) from the
// given data, plus a metadata entry so the frame exercises both paths.
func feedbackStateDict(t *testing.T, data []float32) *model.StateDict {
	t.Helper()
	tt, err := tensor.FromData(append([]float32(nil), data...), len(data))
	if err != nil {
		t.Fatal(err)
	}
	sd := model.NewStateDict()
	for _, e := range []model.Entry{
		{Name: "layer.weight", DType: model.Float32, Tensor: tt},
		{Name: "steps", DType: model.Int64, Ints: []int64{3}},
	} {
		if err := sd.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return sd
}

// TestErrorFeedbackTelescoping is the error-feedback property test:
// across rounds of aggressively sparsified updates, (a) the sum of
// decoded updates plus the final residual reconstructs the sum of true
// updates within float tolerance (the telescoping identity), and (b)
// the residual stays bounded — dropped signal drains back out instead
// of accumulating without limit.
func TestErrorFeedbackTelescoping(t *testing.T) {
	const (
		n      = 2048
		rounds = 25
		frac   = 0.1
	)
	fb := NewFeedback()
	p, err := NewPipeline(Config{Parallelism: 1, Lossy: topkFrac10, Feedback: fb})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	trueSum := make([]float64, n)
	decSum := make([]float64, n)
	maxResidual := 0.0
	for round := 0; round < rounds; round++ {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64()) * 0.05
			trueSum[i] += float64(data[i])
		}
		buf, _, err := p.Compress(feedbackStateDict(t, data))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		out, err := Decompress(buf)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		e, ok := out.Get("layer.weight")
		if !ok {
			t.Fatalf("round %d: decoded frame lost the weight tensor", round)
		}
		nonzero := 0
		for i, v := range e.Tensor.Data() {
			decSum[i] += float64(v)
			if v != 0 {
				nonzero++
			}
		}
		// The sparsifier must actually sparsify: at most the kept
		// fraction (plus slack for ceil) survives each round.
		if limit := int(math.Ceil(float64(n) * frac)); nonzero > limit {
			t.Fatalf("round %d: %d nonzero elements, sparsity budget %d", round, nonzero, limit)
		}
		for _, r := range fb.Residual("layer.weight") {
			if a := math.Abs(float64(r)); a > maxResidual {
				maxResidual = a
			}
		}
	}

	// (a) Telescoping: Σ decoded = Σ true − final residual, exactly up
	// to float32 accumulation noise.
	res := fb.Residual("layer.weight")
	if res == nil {
		t.Fatal("no residual held after sparsified rounds")
	}
	for i := range trueSum {
		diff := trueSum[i] - decSum[i] - float64(res[i])
		if math.Abs(diff) > 1e-3 {
			t.Fatalf("element %d: Σtrue−Σdecoded−residual = %g, want ≈0", i, diff)
		}
	}
	// (b) Boundedness: per-round values are N(0, 0.05); a residual
	// element that grew without draining would random-walk far past
	// this. 1.0 is ~20 per-round standard deviations.
	if maxResidual > 1.0 {
		t.Fatalf("residual reached %g — error feedback is not draining", maxResidual)
	}
}

// TestErrorFeedbackBufferStreamParity pins that the stateful feedback
// path preserves the buffer/streaming byte-parity guarantee: two
// pipelines with identical feedback histories emit identical frames
// through Compress and CompressTo.
func TestErrorFeedbackBufferStreamParity(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(23))
	updates := make([][]float32, 3)
	for r := range updates {
		updates[r] = make([]float32, n)
		for i := range updates[r] {
			updates[r][i] = float32(rng.NormFloat64())
		}
	}

	encode := func(streaming bool) [][]byte {
		fb := NewFeedback()
		p, err := NewPipeline(Config{Parallelism: 2, Lossy: qsgdBits6, Feedback: fb})
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		for _, u := range updates {
			sd := feedbackStateDict(t, u)
			if streaming {
				var buf bytes.Buffer
				if _, err := p.CompressTo(&buf, sd); err != nil {
					t.Fatal(err)
				}
				frames = append(frames, buf.Bytes())
			} else {
				b, _, err := p.Compress(sd)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, b)
			}
		}
		return frames
	}

	buffered, streamed := encode(false), encode(true)
	for r := range buffered {
		if string(buffered[r]) != string(streamed[r]) {
			t.Fatalf("round %d: buffer and streaming frames diverge under feedback (%d vs %d bytes)",
				r, len(buffered[r]), len(streamed[r]))
		}
	}
}

// TestFeedbackStateTransitions covers the Feedback edge cases: no
// residual on first use, shape changes clearing state, and Reset.
func TestFeedbackStateTransitions(t *testing.T) {
	fb := NewFeedback()
	data := []float32{1, 2, 3}
	if got := fb.Adjust("w", data); &got[0] != &data[0] {
		t.Error("first Adjust should return data unchanged")
	}
	fb.Commit("w", []float32{1, 2, 3}, []float32{1, 1, 1})
	if r := fb.Residual("w"); len(r) != 3 || r[1] != 1 || r[2] != 2 {
		t.Fatalf("residual = %v, want [0 1 2]", r)
	}
	adj := fb.Adjust("w", data)
	if &adj[0] == &data[0] {
		t.Error("Adjust with residual must not alias the caller's tensor")
	}
	if adj[2] != 5 {
		t.Errorf("adjusted[2] = %g, want 5", adj[2])
	}
	// Shape change: the stale residual must not apply, and a mismatched
	// commit clears it.
	grown := []float32{1, 2, 3, 4}
	if got := fb.Adjust("w", grown); &got[0] != &grown[0] {
		t.Error("Adjust with mismatched residual should return data unchanged")
	}
	fb.Commit("w", grown, []float32{1})
	if fb.Residual("w") != nil {
		t.Error("mismatched Commit should clear the residual")
	}
	fb.Commit("w", data, []float32{0, 0, 0})
	fb.Reset()
	if fb.Residual("w") != nil {
		t.Error("Reset should drop residuals")
	}
}

// TestResidualStoreLifecycle covers For/Withdraw/Len.
func TestResidualStoreLifecycle(t *testing.T) {
	s := NewResidualStore()
	a := s.For("client-a")
	if s.For("client-a") != a {
		t.Error("For must return the same Feedback per client")
	}
	b := s.For("client-b")
	if a == b {
		t.Error("distinct clients must get distinct Feedback state")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Withdraw("client-a")
	if s.Len() != 1 {
		t.Fatalf("Len after Withdraw = %d, want 1", s.Len())
	}
	if s.For("client-a") == a {
		t.Error("a withdrawn client must start with fresh state")
	}
}
