package adapt_test

// The tests run as an external package so they can drive the real
// pipeline (core imports the built-in compressor suite; adapt itself
// must stay import-light).

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fedsz/internal/adapt"
	"fedsz/internal/core"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// randomDict builds a seeded state dict with a few lossy-path tensors
// of varied shapes and value scales, plus metadata. One tensor is
// constant (degenerate range) and one is tiny-valued, the probe's
// awkward cases.
func randomDict(t *testing.T, seed int64) *model.StateDict {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, scale float64) *tensor.Tensor {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(rng.NormFloat64() * scale)
		}
		tt, err := tensor.FromData(data, n)
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	constT := func(n int, v float32) *tensor.Tensor {
		data := make([]float32, n)
		for i := range data {
			data[i] = v
		}
		tt, err := tensor.FromData(data, n)
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	sd := model.NewStateDict()
	entries := []model.Entry{
		{Name: "l1.weight", DType: model.Float32, Tensor: mk(2000+rng.Intn(3000), 0.1)},
		{Name: "l2.weight", DType: model.Float32, Tensor: mk(1200+rng.Intn(2000), 3.0)},
		{Name: "l3.weight", DType: model.Float32, Tensor: mk(1024+rng.Intn(4096), 1e-4)},
		{Name: "l4.weight", DType: model.Float32, Tensor: constT(1500, 0.25)},
		{Name: "l4.bias", DType: model.Float32, Tensor: mk(32, 0.1)},
		{Name: "l4.num_batches_tracked", DType: model.Int64, Ints: []int64{int64(seed)}},
	}
	for _, e := range entries {
		if err := sd.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return sd
}

// verifyDecodedBounds checks every lossy-path tensor of got against
// the REL bound.
func verifyDecodedBounds(t *testing.T, orig, got *model.StateDict, rel float64, label string) {
	t.Helper()
	gotEntries := got.Entries()
	for i, e := range orig.Entries() {
		if e.DType != model.Float32 || !e.IsWeightNamed() || e.NumElements() <= core.DefaultThreshold {
			continue
		}
		od, gd := e.Tensor.Data(), gotEntries[i].Tensor.Data()
		mn, mx := stats.MinMaxF32(od)
		abs := rel * float64(mx-mn)
		if abs == 0 {
			// Degenerate (constant) tensors resolve to a magnitude-
			// proportional bound, mirroring lossy.Params.Resolve.
			mag := math.Abs(float64(mn))
			if mag == 0 {
				mag = 1
			}
			abs = rel * mag
		}
		if err := lossy.MaxAbsError(od, gd); err > abs*(1+1e-6) {
			t.Errorf("%s: tensor %q max error %g beyond bound %g", label, e.Name, err, abs)
		}
	}
}

// TestAdaptivePlanBoundProperty is the control plane's core safety
// property: whatever plan the policy picks — across random tensors,
// seeds, and every registered lossy compressor as the candidate set —
// the decoded output respects the effective REL bound.
func TestAdaptivePlanBoundProperty(t *testing.T) {
	// Full grid over every canonical compressor, plus each compressor
	// pinned as the only candidate so all of them are exercised even
	// when the grid would never choose them.
	candidateSets := [][]string{nil} // nil = every canonical compressor
	for _, name := range lossy.Names() {
		candidateSets = append(candidateSets, []string{name})
	}
	for seed := int64(1); seed <= 4; seed++ {
		sd := randomDict(t, seed)
		for _, cands := range candidateSets {
			label := "all"
			if cands != nil {
				label = cands[0]
			}
			policy, err := adapt.NewPolicy(adapt.Config{
				Families:     cands,
				BoundFactors: []float64{1, 0.5},
				SampleElems:  1024,
			})
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewPipeline(core.Config{Selector: policy})
			if err != nil {
				t.Fatal(err)
			}
			buf, _, err := p.Compress(sd)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			out, err := core.Decompress(buf)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			verifyDecodedBounds(t, sd, out, policy.Bound(), label)
		}
	}
}

// TestAdaptivePlanCacheAndReprobe pins the plan cache lifecycle: the
// first frame probes every tensor, the following ReprobeEvery-1
// frames serve cached plans, and a materially moved bound invalidates
// them.
func TestAdaptivePlanCacheAndReprobe(t *testing.T) {
	sd := randomDict(t, 9)
	policy, err := adapt.NewPolicy(adapt.Config{ReprobeEvery: 4, SampleElems: 512})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(core.Config{Selector: policy})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Compress(sd); err != nil {
		t.Fatal(err)
	}
	plans := policy.Plans()
	if len(plans) != 4 {
		t.Fatalf("cached %d plans, want 4", len(plans))
	}
	for _, pl := range plans {
		if pl.Lossy == "" || pl.Bound <= 0 {
			t.Fatalf("incomplete plan: %+v", pl)
		}
	}
	// Cached plans keep serving (and keep their bound) across frames.
	for i := 0; i < 2; i++ {
		if _, _, err := p.Compress(sd); err != nil {
			t.Fatal(err)
		}
	}
	// A 10x bound tightening (server directive) must re-plan with the
	// new bound.
	policy.SetRoundBound(1e-3)
	if _, _, err := p.Compress(sd); err != nil {
		t.Fatal(err)
	}
	for _, pl := range policy.Plans() {
		if math.Abs(pl.Bound-1e-3) > 1e-12 && pl.Bound > 1e-3 {
			t.Fatalf("plan %q bound %g did not follow the 1e-3 directive", pl.Tensor, pl.Bound)
		}
	}
	buf, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	verifyDecodedBounds(t, sd, out, 1e-3, "directive")
}

// TestSchedulerTightensWithConvergence pins the round-level schedule:
// decaying update norms tighten the bound monotonically toward the
// clamp, and a server directive overrides the local schedule.
func TestSchedulerTightensWithConvergence(t *testing.T) {
	policy, err := adapt.NewPolicy(adapt.Config{BaseBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if b := policy.NextBound(); b != 1e-2 {
		t.Fatalf("initial bound %g, want base 1e-2", b)
	}
	prev := 1e-2
	norm := 1.0
	for i := 0; i < 20; i++ {
		policy.ObserveUpdateNorm(norm)
		norm *= 0.7
		b := policy.NextBound()
		if b > prev*(1+1e-9) {
			t.Fatalf("step %d: bound %g loosened from %g while norms decay", i, b, prev)
		}
		prev = b
	}
	if prev > 1.1e-3 {
		t.Fatalf("bound %g did not approach the MinBound clamp", prev)
	}
	if min := policy.Config().MinBound; prev < min {
		t.Fatalf("bound %g tightened past the clamp %g", prev, min)
	}
	policy.SetRoundBound(5e-3)
	if b := policy.NextBound(); b != 5e-3 {
		t.Fatalf("override bound %g, want 5e-3", b)
	}
	policy.SetRoundBound(0)
	if b := policy.NextBound(); b == 5e-3 {
		t.Fatal("clearing the override did not restore the schedule")
	}
}

// TestUpdateNorm pins the convergence signal: identical dicts measure
// zero, a known perturbation measures its relative magnitude.
func TestUpdateNorm(t *testing.T) {
	sd := randomDict(t, 3)
	if n := adapt.UpdateNorm(sd, sd); n != 0 {
		t.Fatalf("self-norm %g, want 0", n)
	}
	next := sd.Clone()
	for _, e := range next.Entries() {
		if e.DType != model.Float32 {
			continue
		}
		d := e.Tensor.Data()
		for i := range d {
			d[i] *= 1.01
		}
	}
	n := adapt.UpdateNorm(sd, next)
	if math.Abs(n-0.01) > 1e-4 {
		t.Fatalf("norm of a 1%% scale move = %g, want ~0.01", n)
	}
}

// TestAdaptiveStreamingDecoderCompat pins wire compatibility end to
// end at the package level: a frame the policy shaped decodes through
// the streaming entry decoder exactly like the buffer path.
func TestAdaptiveStreamingDecoderCompat(t *testing.T) {
	sd := randomDict(t, 5)
	policy, err := adapt.NewPolicy(adapt.Config{SampleElems: 512})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPipeline(core.Config{Selector: policy, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if _, err := p.CompressTo(&frame, sd); err != nil {
		t.Fatal(err)
	}
	fromBuf, err := core.Decompress(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := core.DecompressFrom(bytes.NewReader(frame.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fromBuf.Entries(), fromStream.Entries()
	if len(a) != len(b) {
		t.Fatalf("decoders disagree on entry count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("entry %d name %q vs %q", i, a[i].Name, b[i].Name)
		}
		if a[i].DType == model.Float32 && !bytes.Equal(f32bytes(a[i].Tensor.Data()), f32bytes(b[i].Tensor.Data())) {
			t.Fatalf("entry %q decoded differently across paths", a[i].Name)
		}
	}
}

func f32bytes(xs []float32) []byte {
	out := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		v := math.Float32bits(x)
		out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return out
}

// TestPolicyValidation pins constructor rejection of bad configs.
func TestPolicyValidation(t *testing.T) {
	cases := []adapt.Config{
		{Families: []string{"no-such"}},
		{Families: []string{lossy.NameAdaptive}},
		{Lossless: []string{"no-such"}},
		{BoundFactors: []float64{0}},
		{BoundFactors: []float64{1.5}},
		{Fallback: "no-such"},
	}
	for i, cfg := range cases {
		if _, err := adapt.NewPolicy(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

// TestSharedPolicySelfDirectiveDoesNotFreeze regresses the shared-role
// deadlock: one policy serving as both the coordinator's bound
// scheduler and a codec's selector receives its own NextBound back
// through SetRoundBound every round. The echoed directive must not
// freeze the schedule — convergence observations supersede it.
func TestSharedPolicySelfDirectiveDoesNotFreeze(t *testing.T) {
	policy, err := adapt.NewPolicy(adapt.Config{BaseBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	norm := 1.0
	for round := 0; round < 12; round++ {
		// The driver's order of operations: broadcast this round's
		// bound (which a shared policy applies to itself), run the
		// round, observe the commit.
		policy.SetRoundBound(policy.NextBound())
		policy.ObserveUpdateNorm(norm)
		norm *= 0.6
	}
	if b := policy.NextBound(); b >= 1e-2 {
		t.Fatalf("bound %g never tightened: self-directive froze the schedule", b)
	}
}
