package adapt_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fedsz/internal/adapt"
	"fedsz/internal/core"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// TestAdaptiveBeatsEveryStatic is the adaptive subsystem's acceptance
// criterion: over one pool of updates, per-tensor selection puts no
// more bytes on the wire than the best single static compressor does —
// on the paper's MobileNetV2, and on tensors whose statistics each
// want a different family, where one frame must mix ≥3 of them. With
// BandwidthBps 0 selection is pure ratio, so no clock is read. On
// MobileNetV2 every plan is sz3 and the margin is the metadata codec
// the policy picks; the mixed row is decided by per-tensor family
// choice.
func TestAdaptiveBeatsEveryStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := model.BuildStateDict(model.MobileNetV2(16), 42)
	var paper, mixed []*model.StateDict
	for i := 0; i < 4; i++ {
		paper = append(paper, perturbDict(base, rng, 1e-2))
	}
	for i := 0; i < 3; i++ {
		mixed = append(mixed, familiesDict(t, rng))
	}

	for _, tc := range []struct {
		name        string
		pool        []*model.StateDict
		candidates  []string
		minFamilies int
	}{
		{"mobilenetv2", paper, core.LossyNames(), 1},
		{"mixed", mixed, []string{"sz2", "sz3", "szx", "zfp", "topk", "qsgd", "pred"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			best, bestName := int64(-1), ""
			for _, name := range tc.candidates {
				p, err := core.NewPipeline(core.Config{Lossy: name, Bound: lossy.RelBound(core.DefaultBound)})
				if err != nil {
					t.Fatal(err)
				}
				if n := poolBytes(t, p, tc.pool); best < 0 || n < best {
					best, bestName = n, name
				}
			}

			policy, err := adapt.NewPolicy(adapt.Config{Families: tc.candidates, BaseBound: core.DefaultBound})
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewPipeline(core.Config{Selector: policy})
			if err != nil {
				t.Fatal(err)
			}
			// The first encode queues every tensor's probe; the measured
			// pass serves the probed plans.
			if _, _, err := p.Compress(tc.pool[0]); err != nil {
				t.Fatal(err)
			}
			policy.WaitProbes()
			got := poolBytes(t, p, tc.pool)

			chosen := map[string]bool{}
			for _, pl := range policy.Plans() {
				chosen[pl.Lossy] = true
			}
			var families []string
			for f := range chosen {
				families = append(families, f)
			}
			sort.Strings(families)
			t.Logf("adaptive %d B vs best static %s %d B (%+.1f%%); plans use %v",
				got, bestName, best, 100*(float64(got)/float64(best)-1), families)
			if got > best {
				t.Errorf("adaptive %d B exceeds best static %s %d B", got, bestName, best)
			}
			if len(families) < tc.minFamilies {
				t.Errorf("plans use %v, want ≥%d families", families, tc.minFamilies)
			}
		})
	}
}

// poolBytes is the frame bytes p puts on the wire for the whole pool.
func poolBytes(t *testing.T, p *core.Pipeline, pool []*model.StateDict) int64 {
	t.Helper()
	var total int64
	for _, sd := range pool {
		buf, _, err := p.Compress(sd)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(buf))
	}
	return total
}

// perturbDict returns a copy of sd with uniform noise of amplitude eps
// on every float entry: one client's update after a local step.
func perturbDict(sd *model.StateDict, rng *rand.Rand, eps float32) *model.StateDict {
	out := sd.Clone()
	for _, e := range out.Entries() {
		if e.DType != model.Float32 {
			continue
		}
		data := e.Tensor.Data()
		for i := range data {
			data[i] += (rng.Float32()*2 - 1) * eps
		}
	}
	return out
}

// familiesDict builds three weight tensors that no single family wins
// on all of — a smooth sinusoid (predictor/EBLC), 1% spikes on zero
// (top-k) and dense uniform noise (quantizer) — plus a sub-threshold
// bias and an integer entry for the lossless path.
func familiesDict(t *testing.T, rng *rand.Rand) *model.StateDict {
	t.Helper()
	const n = 1 << 14
	smooth, spikes, noise := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range smooth {
		smooth[i] = float32(math.Sin(2*math.Pi*float64(i)/256) + 0.002*rng.NormFloat64())
		noise[i] = rng.Float32()*2 - 1
	}
	for i := 0; i < n/100; i++ {
		spikes[rng.Intn(n)] = float32(5 + rng.NormFloat64())
	}
	bias := make([]float32, 64)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	sd := model.NewStateDict()
	for _, e := range []struct {
		name string
		data []float32
	}{{"smooth.weight", smooth}, {"spikes.weight", spikes}, {"noise.weight", noise}, {"head.bias", bias}} {
		tt, err := tensor.FromData(e.data, len(e.data))
		if err != nil {
			t.Fatal(err)
		}
		if err := sd.Add(model.Entry{Name: e.name, DType: model.Float32, Tensor: tt}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sd.Add(model.Entry{Name: "steps", DType: model.Int64, Ints: []int64{1}}); err != nil {
		t.Fatal(err)
	}
	return sd
}
