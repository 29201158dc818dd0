package sz2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsz/internal/lossy"
	"fedsz/internal/quant"
)

// haveAVX2 is whether this CPU runs the AVX2 kernels, taken before any
// test changes useAVX2.
var haveAVX2 = useAVX2

// setPath selects the AVX2 kernels (on) or the scalar loops for the rest
// of t, and skips t, saying so, where on asks for AVX2 the CPU lacks.
func setPath(t *testing.T, on bool) {
	t.Helper()
	if on && !haveAVX2 {
		t.Skip("the CPU lacks AVX2: only the scalar loops run")
	}
	saved := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = saved })
}

// eachPath runs f as the subtests "scalar" and "avx2", each on its path.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{false, true} {
		name := "scalar"
		if on {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			setPath(t, on)
			f(t)
		})
	}
}

// refEncode is quant.Quantizer.Encode as the per-element loop called it,
// with math.Round: the arithmetic the block kernels must reproduce.
func refEncode(val, pred, eb float64, radius int) (code int, recon float64, ok bool) {
	step := 2 * eb
	c := math.Round((val - pred) / step)
	if math.Abs(c) > float64(radius) || math.IsNaN(c) {
		return 0, 0, false
	}
	code = int(c)
	recon = pred + float64(code)*step
	if math.Abs(recon-val) > eb*(1+1e-9) {
		return 0, 0, false
	}
	return code, recon, true
}

// refElement codes value v against pred as the per-element loop did:
// its code (0 for an outlier), the reconstruction the next prediction
// reads, and whether only the float32 mirror made it an outlier.
func refElement(v float32, pred, eb float64) (code int32, recon float64, demoted bool) {
	radius := quant.DefaultRadius
	c, r, ok := refEncode(float64(v), pred, eb, radius)
	if ok {
		r = float64(float32(r))
		if math.Abs(r-float64(v)) > eb {
			ok, demoted = false, true
		}
	}
	if !ok {
		return 0, float64(v), demoted
	}
	return int32(c + radius + 1), r, false
}

// refFitLine and refRegressionWins are fitLine and regressionWins over
// the float32 block, each widening every value where it reads it.
func refFitLine(block []float32, prev float64) (a0, a1, lorenzo float64) {
	var sumY, sumXY float64
	for i, v := range block {
		x := float64(v)
		sumY += x
		sumXY += float64(i) * x
		lorenzo += math.Abs(x - prev)
		prev = x
	}
	n := float64(len(block))
	if len(block) < 2 {
		if len(block) == 1 {
			return float64(block[0]), 0, lorenzo
		}
		return 0, 0, 0
	}
	sumX := n * (n - 1) / 2
	sumXX := (n - 1) * n * (2*n - 1) / 6
	denom := n*sumXX - sumX*sumX
	if denom == 0 {
		return sumY / n, 0, lorenzo
	}
	a1 = (n*sumXY - sumX*sumY) / denom
	a0 = (sumY - a1*sumX) / n
	return a0, a1, lorenzo
}

func refRegressionWins(block []float32, a0, a1, lorenzo float64) bool {
	var regress float64
	for i, v := range block {
		regress += math.Abs(float64(v) - (a0 + a1*float64(i)))
	}
	return regress < lorenzo*0.8
}

// refCoef codes coefficient a against its prediction *prev with
// math.Round, as codeCoef must: a code in the radius, or code 0 and the
// float32 stored verbatim.
func refCoef(sc *compScratch, prev *float64, a, step float64) float64 {
	c := math.Round((a - *prev) / step)
	if math.Abs(c) > coefRadius || math.IsNaN(c) {
		sc.coefCodes = append(sc.coefCodes, 0)
		sc.verbatim = append(sc.verbatim, float32(a))
		*prev = float64(float32(a))
	} else {
		sc.coefCodes = append(sc.coefCodes, int32(c)+coefRadius+1)
		*prev += c * step
	}
	return *prev
}

// refPredict is predict as one loop over elements: a refEncode call per
// value and the block mode branched on inside it. demoted counts the
// values only the float32 mirror made outliers.
func refPredict(data []float32, eb float64, noRegression bool) (sc *compScratch, demoted int) {
	sc = new(compScratch)
	var prevA0, prevA1 float64 // the last regression block's dequantized pair
	prevRecon := 0.0
	for lo := 0; lo < len(data); lo += BlockSize {
		block := data[lo:min(lo+BlockSize, len(data))]
		mode := predLorenzo
		var a0, a1 float64
		if !noRegression {
			var lorenzo float64
			a0, a1, lorenzo = refFitLine(block, prevRecon)
			if refRegressionWins(block, a0, a1, lorenzo) {
				mode = predRegress
			}
		}
		sc.modes = append(sc.modes, byte(mode))
		if mode == predRegress {
			a0 = refCoef(sc, &prevA0, a0, 2*coefTheta*eb)
			a1 = refCoef(sc, &prevA1, a1, 2*coefTheta*eb/BlockSize)
		}
		recon := prevRecon
		for i, v := range block {
			pred := recon
			if mode == predRegress {
				pred = a0 + a1*float64(i)
			}
			code, r, dem := refElement(v, pred, eb)
			if dem {
				demoted++
			}
			sc.codes = append(sc.codes, code)
			if code == 0 {
				sc.outliers = append(sc.outliers, v)
			}
			recon = r
		}
		prevRecon = recon
	}
	return sc, demoted
}

func float32Bits(xs []float32) []uint32 {
	bits := make([]uint32, len(xs))
	for i, x := range xs {
		bits[i] = math.Float32bits(x)
	}
	return bits
}

// dequantized replays sc's coefficient codes through the decoder's
// chain: the pair each regression block's kernel predicted from.
func dequantized(sc *compScratch, eb float64) []float64 {
	chain := newCoefChain(eb)
	out := make([]float64, len(sc.coefCodes))
	verbatim := sc.verbatim
	for i, code := range sc.coefCodes {
		if code == 0 {
			chain.prev[i%2], verbatim = float64(verbatim[0]), verbatim[1:]
			out[i] = chain.prev[i%2]
			continue
		}
		out[i] = chain.next(i%2, int(code)-coefRadius-1)
	}
	return out
}

// checkReference compresses data with c and asserts that predict's
// output and the whole section equal the reference loop's, byte for
// byte, and that the section decodes within the bound. It returns the
// reference's stage output for the caller's coverage checks.
func checkReference(t *testing.T, c *Compressor, data []float32, p lossy.Params) (ref *compScratch, demoted int) {
	t.Helper()
	got, err := c.Compress(data, p)
	eb, rerr := p.Resolve(data)
	if rerr != nil {
		if err == nil {
			t.Fatalf("Compress accepted params that Resolve rejects: %v", rerr)
		}
		return nil, 0
	}
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	if len(data) == 0 {
		return nil, 0
	}
	ref, demoted = refPredict(data, eb, c.noRegression)
	sc := new(compScratch)
	c.predict(sc, data, eb)
	if !bytes.Equal(sc.modes, ref.modes) {
		t.Fatalf("modes differ from the reference")
	}
	if !slices.Equal(sc.coefCodes, ref.coefCodes) || !slices.Equal(float32Bits(sc.verbatim), float32Bits(ref.verbatim)) {
		t.Fatalf("coefficients differ from the reference")
	}
	for i := range data {
		if sc.codes[i] != ref.codes[i] {
			t.Fatalf("code %d of %d: kernel %d, reference %d (value %v)", i, len(data), sc.codes[i], ref.codes[i], data[i])
		}
	}
	if !slices.Equal(float32Bits(sc.outliers), float32Bits(ref.outliers)) {
		t.Fatalf("outliers differ from the reference")
	}
	payload, err := ref.appendPayload()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.frame(payload, len(data), eb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("section differs from the reference (%d vs %d bytes)", len(got), len(want))
	}
	dec, err := c.Decompress(got)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	// A NaN decodes as a NaN (the decoder's widening quiets a signaling
	// one), ±Inf exactly, anything else within the bound.
	for i, x := range data {
		nan := x != x && dec[i] != dec[i]
		if !nan && dec[i] != x && !(math.Abs(float64(dec[i])-float64(x)) <= eb) {
			t.Fatalf("element %d: decoded %v for %v, bound %v", i, dec[i], x, eb)
		}
	}
	return ref, demoted
}

// kernelCases are blocks built to reach every branch of the kernels.
func kernelCases() []struct {
	name string
	data []float32
	p    lossy.Params
} {
	inf := float32(math.Inf(1))
	snan := math.Float32frombits(0x7f800001) // signaling NaN, kept bit for bit
	special := []float32{
		0, float32(math.Copysign(0, -1)), 1, float32(math.NaN()), 1.5, inf, 2, -inf, 2.5,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
		snan, math.Float32frombits(0xffc00001), 3, math.MaxFloat32, -math.MaxFloat32, 4,
	}
	// Lorenzo reconstructions stay integers at step 1, so every value
	// k+0.5 is an exact quantization tie.
	var ties []float32
	for i := 0; i < 3*BlockSize; i++ {
		ties = append(ties, float32(i%9-4)+0.5)
	}
	// At step 1 from a reconstruction of 0: codes ±radius, one step past
	// it, and the ties ±(radius+0.5) that RoundToEven alone would keep.
	r := float32(quant.DefaultRadius)
	edges := []float32{r, 0, -r, 0, r + 1, 0, -r - 1, 0, r + 0.5, 0, -r - 0.5, 0, r - 0.5, 0, -r + 0.5}
	// Regression blocks of x = i + h·t, where t repeats the Thue–Morse
	// signs (+ − − + − + + −): their sum and first moment vanish, so the
	// fit is exactly x = i and every residual is ±h. At step 1 that puts
	// regression codes on exact ties, at ±radius, on the ties just past
	// it and one step past it.
	thueMorse := [8]float32{1, -1, -1, 1, -1, 1, 1, -1}
	var ramps []float32
	for _, h := range []float32{0.5, 1.5, r, r + 0.5, r + 1} {
		for i := 0; i < BlockSize; i++ {
			ramps = append(ramps, float32(i)+h*thueMorse[i%8])
		}
	}
	// Near 1e8 float32 values are 8 apart; at eb = 4.75 a reconstruction
	// within eb of its value can still round to the next float32.
	rng := rand.New(rand.NewSource(5))
	demote := make([]float32, 2*BlockSize+17)
	for i := range demote {
		demote[i] = 1e8 + 8*float32(rng.Intn(6))
	}
	// Smooth ramps pick regression and noise picks Lorenzo; the tail
	// block is 37 values long.
	mixed := make([]float32, 6*BlockSize+37)
	for i := range mixed {
		if (i/BlockSize)%2 == 0 {
			mixed[i] = 0.01 * float32(i%BlockSize)
		} else {
			mixed[i] = float32(rng.NormFloat64())
		}
	}
	return []struct {
		name string
		data []float32
		p    lossy.Params
	}{
		{"special", special, lossy.AbsBound(1e-3)},
		{"special_subnormal_bound", special, lossy.AbsBound(1e-45)},
		{"ties", ties, lossy.AbsBound(0.5)},
		{"ties_fine", ties, lossy.AbsBound(1.0 / 64)},
		{"radius_edges", edges, lossy.AbsBound(0.5)},
		{"regression_edges", ramps, lossy.AbsBound(0.5)},
		{"mirror_demotion", demote, lossy.AbsBound(4.75)},
		{"mixed_rel", mixed, lossy.RelBound(1e-2)},
		{"mixed_abs", mixed, lossy.AbsBound(1e-4)},
		{"golden", goldenData(5000), lossy.RelBound(1e-3)},
		{"one", []float32{3}, lossy.AbsBound(0.1)},
	}
}

// TestKernelMatchesReference pins the per-mode kernels to the
// per-element loop they replaced, byte for byte, over blocks holding
// NaN, ±Inf, subnormals and ±0, exact ties, codes at and past the
// radius, values the float32 mirror demotes, both modes and a short
// tail block, on the scalar path and on the AVX2 path.
func TestKernelMatchesReference(t *testing.T) {
	var sawDemoted, sawRegress, sawLorenzo bool // reached by some case
	for _, tc := range kernelCases() {
		for _, c := range []struct {
			name string
			c    *Compressor
		}{{"hybrid", New()}, {"lorenzo", New(WithoutRegression())}, {"raw", New(WithLosslessStage(nil))}} {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				eachPath(t, func(t *testing.T) {
					ref, demoted := checkReference(t, c.c, tc.data, tc.p)
					sawDemoted = sawDemoted || demoted > 0
					if ref != nil {
						sawRegress = sawRegress || bytes.IndexByte(ref.modes, predRegress) >= 0
						sawLorenzo = sawLorenzo || bytes.IndexByte(ref.modes, predLorenzo) >= 0
					}
				})
			})
		}
	}
	if !sawDemoted || !sawRegress || !sawLorenzo {
		t.Fatalf("cases missed a branch: mirror demotion %v, regression %v, Lorenzo %v", sawDemoted, sawRegress, sawLorenzo)
	}
}

// TestKernelMatchesReferenceMobileNet runs the comparison over the
// tensors a flat_lan update compresses.
func TestKernelMatchesReferenceMobileNet(t *testing.T) {
	if testing.Short() {
		t.Skip("compresses a whole MobileNetV2 update twice")
	}
	tensors, _ := mobileNetTensors()
	eachPath(t, func(t *testing.T) {
		for _, data := range tensors {
			checkReference(t, New(), data, lossy.RelBound(1e-2))
		}
	})
}

// TestRegressLanes pins kernel.regress, on each path, to refElement
// element by element — codes, outliers and the returned reconstruction —
// and the AVX2 decoder kernel to the encoder's reconstructions. Each
// adversarial value sits at one lane position 0–3 of every four-lane
// group and of the tail, in blocks of 1–9 and 128 values. NaN and ±Inf
// never reach regression through predict (they make the fit NaN and the
// block Lorenzo), so this test hands the kernel its coefficients.
func TestRegressLanes(t *testing.T) {
	r := float64(quant.DefaultRadius)
	sub := math.SmallestNonzeroFloat32
	at := func(off float64) func(i int) float32 { // pred + off on the ramp pred = i
		return func(i int) float32 { return float32(float64(i) + off) }
	}
	is := func(v float64) func(int) float32 { return func(int) float32 { return float32(v) } }
	cases := []struct {
		name       string
		eb, a0, a1 float64
		base       func(i int) float32
		specials   map[string]func(i int) float32
	}{
		// At step 1 on the ramp: exact ties, ties past the radius that
		// RoundToEven alone would keep, codes at and one past ±radius,
		// NaN and ±Inf.
		{"ramp", 0.5, 0, 1, at(0), map[string]func(int) float32{
			"+0.5": at(0.5), "-0.5": at(-0.5), "+2.5": at(2.5), "-2.5": at(-2.5),
			"+radius+0.5": at(r + 0.5), "-radius-0.5": at(-r - 0.5), "+radius-0.5": at(r - 0.5),
			"+radius": at(r), "-radius": at(-r), "+radius+1": at(r + 1), "-radius-1": at(-r - 1),
			"NaN": is(math.NaN()), "+Inf": is(math.Inf(1)), "-Inf": is(math.Inf(-1)),
			"sNaN": func(int) float32 { return math.Float32frombits(0x7f800001) },
		}},
		// pred = 1e8+6 and float32s near 1e8 are 8 apart: x = 1e8 keeps
		// code 0 with |r−x| = 6, and float32(r) = 1e8+8 lands on eb = 8
		// (kept) or past eb = 7.5 (demoted).
		{"demote_on_eb", 8, 1e8 + 6, 0, is(1e8 + 8), map[string]func(int) float32{"1e8": is(1e8)}},
		{"demote_past_eb", 7.5, 1e8 + 6, 0, is(1e8 + 8), map[string]func(int) float32{"1e8": is(1e8)}},
		// pred = −0 + −0·i = −0 and y = −0.25 rounds to c = −0: int(c) makes
		// r = −0 + 0·step = +0, where −0·step would leave it −0.
		{"negative_zero", 0.5, math.Copysign(0, -1), math.Copysign(0, -1), is(0), map[string]func(int) float32{
			"-0.25": is(-0.25),
		}},
		{"subnormal", 1e-45, 0, 0, is(0), map[string]func(int) float32{
			"+min": is(sub), "-min": is(-sub), "max": func(int) float32 { return math.Float32frombits(0x007fffff) },
			"-0": is(math.Copysign(0, -1)),
		}},
		{"subnormal_pred", 1e-45, 0, math.SmallestNonzeroFloat64, is(0), map[string]func(int) float32{
			"+min": is(sub), "-min": is(-sub), "-0": is(math.Copysign(0, -1)),
		}},
		{"subnormal_step", math.SmallestNonzeroFloat64, 0, 0, is(0), map[string]func(int) float32{
			"+min": is(sub), "-0": is(math.Copysign(0, -1)),
		}},
	}
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, BlockSize}
	eachPath(t, func(t *testing.T) {
		for _, tc := range cases {
			k := kernel{eb: tc.eb, step: 2 * tc.eb, tol: tc.eb * (1 + 1e-9), radius: quant.DefaultRadius}
			for name, special := range tc.specials {
				for _, n := range lengths {
					for lane := 0; lane < min(4, n); lane++ {
						block := make([]float32, n)
						view := make([]float64, n)
						want := make([]int32, n)
						var wantOut []float32
						var wantRecon float64
						for i := range block {
							block[i] = tc.base(i)
							if i%4 == lane {
								block[i] = special(i)
							}
							view[i] = float64(block[i])
							want[i], wantRecon, _ = refElement(block[i], tc.a0+tc.a1*float64(i), tc.eb)
							if want[i] == 0 {
								wantOut = append(wantOut, block[i])
							}
						}
						codes := make([]int32, n)
						k.outliers = k.outliers[:0]
						recon := k.regress(codes, block, view, tc.a0, tc.a1)
						where := fmt.Sprintf("%s %s, %d values, lane %d", tc.name, name, n, lane)
						if !slices.Equal(codes, want) {
							t.Fatalf("%s: codes %v, reference %v", where, codes, want)
						}
						if !slices.Equal(float32Bits(k.outliers), float32Bits(wantOut)) {
							t.Fatalf("%s: outliers %v, reference %v", where, k.outliers, wantOut)
						}
						if math.Float64bits(recon) != math.Float64bits(wantRecon) {
							t.Fatalf("%s: recon %v, reference %v", where, recon, wantRecon)
						}
						if !useAVX2 || n < 4 {
							continue
						}
						// The decoder kernel must rebuild every kept value's
						// float32 reconstruction bit for bit.
						n4 := n &^ 3
						out := make([]float32, n4)
						zero := reconRegressAVX2(out, codes[:n4], tc.a0, tc.a1, 2*tc.eb, quant.DefaultRadius+1)
						if zero != slices.Contains(codes[:n4], 0) {
							t.Fatalf("%s: decoder kernel reported code 0 %v", where, zero)
						}
						for i, c := range codes[:n4] {
							_, r, _ := refElement(block[i], tc.a0+tc.a1*float64(i), tc.eb)
							if c != 0 && math.Float32bits(out[i]) != math.Float32bits(float32(r)) {
								t.Fatalf("%s: value %d decoded %v, encoder rebuilt %v", where, i, out[i], float32(r))
							}
						}
					}
				}
			}
		}
	})
}

// TestCoefficientFidelity bounds what coding the regression
// coefficients costs, over the lossy tensors of a MobileNetV2 update and
// over goldenData at each golden setting that uses regression:
//
//   - every element decodes within eb;
//   - every coded coefficient lies within its bound of the fitted one:
//     θ·eb for an intercept, θ·eb/BlockSize for a slope;
//   - in a regression block whose every element took the center code,
//     the reconstruction error is the prediction's, and the fitted line
//     leaves no mean residual, so the block's mean signed error is the
//     coefficients' bias: it must stay within 2θ·eb, taken at θ = 1/16
//     so that a coarser coefTheta fails here. Where residuals span
//     several steps the element quantizer dithers the bias away, and
//     the mean signed error is the quantizer's, coded or not.
func TestCoefficientFidelity(t *testing.T) {
	type set struct {
		name    string
		tensors [][]float32
		p       lossy.Params
	}
	sets := []set{}
	for _, tc := range goldenCases {
		if !tc.c.noRegression {
			sets = append(sets, set{"golden/" + tc.name, [][]float32{goldenData(40000)}, tc.p})
		}
	}
	if !testing.Short() {
		tensors, _ := mobileNetTensors()
		sets = append(sets, set{"mobilenet", tensors, lossy.RelBound(1e-2)})
	}
	center := int32(quant.DefaultRadius + 1)
	total := 0 // all-center regression blocks seen
	for _, st := range sets {
		var worst float64
		flat := 0
		for _, data := range st.tensors {
			eb, err := st.p.Resolve(data)
			if err != nil {
				t.Fatal(err)
			}
			buf, err := New().Compress(data, st.p)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := New().Decompress(buf)
			if err != nil {
				t.Fatal(err)
			}
			if e := lossy.MaxAbsError(data, dec); e > eb {
				t.Fatalf("%s: element error %g exceeds eb %g", st.name, e, eb)
			}
			sc := new(compScratch)
			New().predict(sc, data, eb)
			coeffs := dequantized(sc, eb)
			view := make([]float64, BlockSize)
			ci := 0
			for b, mode := range sc.modes {
				if mode != predRegress {
					continue
				}
				lo, hi := b*BlockSize, min((b+1)*BlockSize, len(data))
				x := view[:hi-lo]
				for i, v := range data[lo:hi] {
					x[i] = float64(v)
				}
				a0, a1, _ := fitLine(x, 0)
				for j, fit := range []float64{a0, a1} {
					bound := coefTheta * eb * (1 + 1e-9)
					if j == 1 {
						bound /= BlockSize
					}
					if sc.coefCodes[ci+j] != 0 && !(math.Abs(coeffs[ci+j]-fit) <= bound) {
						t.Fatalf("%s: block %d coefficient %d coded %v for %v, bound %g", st.name, b, j, coeffs[ci+j], fit, bound)
					}
				}
				ci += 2
				if slices.ContainsFunc(sc.codes[lo:hi], func(c int32) bool { return c != center }) {
					continue
				}
				flat++
				var sum float64
				for i := lo; i < hi; i++ {
					sum += float64(dec[i]) - float64(data[i])
				}
				bias := math.Abs(sum/float64(hi-lo)) / eb
				worst = max(worst, bias)
				if bias > 2.0/16 {
					t.Fatalf("%s: block %d mean signed error %.4f·eb, bound 2θ = 0.125", st.name, b, bias)
				}
			}
		}
		t.Logf("%s: %d all-center regression blocks, worst bias %.4f·eb", st.name, flat, worst)
		total += flat
	}
	if total < 100 {
		t.Fatalf("only %d all-center regression blocks: the bias check saw too few", total)
	}
}

// FuzzSZ2Compress feeds arbitrary float32 bit patterns and bounds to
// Compress: on each path the section must equal the reference loop's
// byte for byte and decode within the bound, the two paths' sections
// must be identical, and params Resolve rejects must fail.
func FuzzSZ2Compress(f *testing.F) {
	for _, tc := range kernelCases() {
		var raw []byte
		for _, v := range tc.data {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		f.Add(raw, tc.p.Bound, tc.p.Mode == lossy.Rel)
	}
	f.Fuzz(func(t *testing.T, raw []byte, bound float64, rel bool) {
		data := make([]float32, len(raw)/4)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		p := lossy.AbsBound(bound)
		if rel {
			p = lossy.RelBound(bound)
		}
		defer func(saved bool) { useAVX2 = saved }(useAVX2)
		var sections [2][]byte
		for i, on := range []bool{false, haveAVX2} {
			useAVX2 = on
			checkReference(t, New(), data, p)
			sections[i], _ = New().Compress(data, p)
		}
		if !bytes.Equal(sections[0], sections[1]) {
			t.Fatalf("the scalar and AVX2 paths wrote different sections (%d vs %d bytes)", len(sections[0]), len(sections[1]))
		}
	})
}

// TestCompressRejectsNonFiniteRange: a REL bound over a tensor holding
// ±Inf used to resolve to +Inf, and Compress wrote a section its own
// Decompress rejected. A NaN, wherever it sits, is stored verbatim.
func TestCompressRejectsNonFiniteRange(t *testing.T) {
	tensor := func(at int, v float32) []float32 {
		rng := rand.New(rand.NewSource(9))
		data := make([]float32, 300)
		for i := range data {
			data[i] = float32(rng.NormFloat64())
		}
		data[at] = v
		return data
	}
	for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := New().Compress(tensor(5, bad), lossy.RelBound(1e-2)); !errors.Is(err, lossy.ErrInvalidParams) {
			t.Fatalf("data[5] = %v: Compress error %v, want ErrInvalidParams", bad, err)
		}
	}
	for _, at := range []int{0, 5, 299} {
		buf, err := New().Compress(tensor(at, float32(math.NaN())), lossy.RelBound(1e-2))
		if err != nil {
			t.Fatalf("NaN at %d: %v", at, err)
		}
		dec, err := New().Decompress(buf)
		if err != nil {
			t.Fatalf("NaN at %d: decompress: %v", at, err)
		}
		if !math.IsNaN(float64(dec[at])) {
			t.Fatalf("NaN at %d decoded as %v", at, dec[at])
		}
	}
}
