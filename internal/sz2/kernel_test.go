package sz2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	recon = pred + float64(float64(code)*step)
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
		sumXY += float64(float64(i) * x)
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
	denom := float64(n*sumXX) - float64(sumX*sumX)
	if denom == 0 {
		return sumY / n, 0, lorenzo
	}
	a1 = (float64(n*sumXY) - float64(sumX*sumY)) / denom
	a0 = (sumY - float64(a1*sumX)) / n
	return a0, a1, lorenzo
}

func refRegressionWins(block []float32, a0, a1, lorenzo float64) bool {
	return refResidual(block, a0, a1) < lorenzo*0.8
}

// refResidual is regressionWins' residual sum.
func refResidual(block []float32, a0, a1 float64) (regress float64) {
	for i, v := range block {
		regress += math.Abs(float64(v) - (a0 + float64(a1*float64(i))))
	}
	return regress
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
		*prev += float64(c * step)
	}
	return *prev
}

// refPredict is predict as one loop over elements: a refEncode call per
// value and the block mode branched on inside it. demoted counts the
// values only the float32 mirror made outliers, and prevs holds each
// block's reconstruction before it.
func refPredict(data []float32, eb float64, noRegression bool) (sc *compScratch, demoted int, prevs []float64) {
	sc = new(compScratch)
	var prevA0, prevA1 float64 // the last regression block's dequantized pair
	prevRecon := 0.0
	for lo := 0; lo < len(data); lo += BlockSize {
		block := data[lo:min(lo+BlockSize, len(data))]
		prevs = append(prevs, prevRecon)
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
				pred = a0 + float64(a1*float64(i))
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
	return sc, demoted, prevs
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
	ref, demoted, _ = refPredict(data, eb, c.noRegression)
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
			ramps = append(ramps, float32(i)+float32(h*thueMorse[i%8]))
		}
	}
	// Near 1e8 float32 values are 8 apart; at eb = 4.75 a reconstruction
	// within eb of its value can still round to the next float32.
	rng := rand.New(rand.NewSource(5))
	demote := make([]float32, 2*BlockSize+17)
	for i := range demote {
		demote[i] = 1e8 + float32(8*float32(rng.Intn(6)))
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
	// Blocks the four-block selection's bound cannot decide (see
	// countSelections): constant blocks, at the last block's level or
	// off it, and steps, where Lorenzo wins or wins only with its first
	// term; tieBlock's regress sits exactly at 0.8 times its Lorenzo sum
	// without the first term, after a block ending on 0 and after one
	// ending on 3; and regression-friendly ramps after a block ending in
	// NaN or ±Inf, whose first term is NaN or +Inf.
	var levels []float32
	for b, level := range []float32{0, 0, 3, 3, -2, 7, 7, 7, 1} {
		for i := range BlockSize {
			v := level
			if b == 7 && i >= BlockSize/2 {
				v++ // a step
			}
			levels = append(levels, v)
		}
	}
	levels = append(levels, 1, 1, 1)
	var atBound []float32
	for _, level := range []float32{-1, 3, -1, -1, 3, -1, -1, -1} {
		block := tieBlock()
		if level >= 0 {
			for i := range block {
				block[i] = level
			}
		}
		atBound = append(atBound, block...)
	}
	atBound = append(atBound, tieBlock()[:37]...)
	afterNaN := make([]float32, 9*BlockSize)
	for i := range afterNaN {
		afterNaN[i] = float32(0.01*float32(i%BlockSize)) + float32(0.001*rng.NormFloat64())
	}
	for b, last := range map[int]float32{0: float32(math.NaN()), 2: inf, 4: -inf, 5: float32(math.NaN())} {
		afterNaN[(b+1)*BlockSize-1] = last
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
		{"levels", levels, lossy.AbsBound(1e-3)},
		{"selection_ties", atBound, lossy.AbsBound(0.5)},
		{"nan_before_ramp", afterNaN, lossy.AbsBound(1e-3)},
	}
}

// tieBlock is a block whose fitted line is exactly 0 and whose residual
// sum is exactly 0.8 times its Lorenzo sum without the first term:
// sixteen units ±(0 5 2 1 0 0 0 0), signed by the Thue–Morse sequence,
// whose sum and first moment vanish. Each unit adds 8 to the residual
// sum and 10 to the Lorenzo sum, and units meet at 0, so the sums are
// 128 and 160, and 160·0.8 rounds to 128.
func tieBlock() []float32 {
	unit := [8]float32{0, 5, 2, 1, 0, 0, 0, 0}
	block := make([]float32, 0, BlockSize)
	for k := range BlockSize / 8 {
		sign := float32(1 - 2*(bits.OnesCount(uint(k))%2))
		for _, v := range unit {
			block = append(block, sign*v)
		}
	}
	return block
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
	tensors, _ := mobileNetTensors(1)
	eachPath(t, func(t *testing.T) {
		for _, data := range tensors {
			checkReference(t, New(), data, lossy.RelBound(1e-2))
		}
	})
	var n selections
	for _, data := range tensors {
		eb, err := lossy.RelBound(1e-2).Resolve(data)
		if err != nil {
			t.Fatal(err)
		}
		n.add(countSelections(data, eb))
	}
	t.Logf("four-block runs: %+v", n)
	if n.bound < 9*n.blocks()/10 {
		t.Fatalf("the bound decided %d of %d blocks", n.bound, n.blocks())
	}
}

// selections counts how the four-block selection decides the blocks in
// four-block runs (see regressionWinsLanes), with L0 the Lorenzo sum
// without its first term t0 = |x0 − prevRecon|.
type selections struct {
	bound    int // regress < 0.8·L0 and t0 not NaN: regression, prevRecon unread
	nanFirst int // regress < 0.8·L0 but t0 NaN: serial, and Lorenzo
	// The rest are serial: regression only with t0 in the sum, or Lorenzo.
	serialRegress, serialLorenzo int
	tie                          int // regress == 0.8·L0, of any of the above
}

func (n *selections) add(m selections) {
	n.bound += m.bound
	n.nanFirst += m.nanFirst
	n.serialRegress += m.serialRegress
	n.serialLorenzo += m.serialLorenzo
	n.tie += m.tie
}

func (n selections) blocks() int {
	return n.bound + n.nanFirst + n.serialRegress + n.serialLorenzo
}

// countSelections classifies data's blocks in four-block runs from the
// reference fit and the reference's reconstruction before each block.
func countSelections(data []float32, eb float64) (n selections) {
	_, _, prevs := refPredict(data, eb, false)
	for b := range len(data) / (4 * BlockSize) * 4 {
		block := data[b*BlockSize : (b+1)*BlockSize]
		a0, a1, from0 := refFitLine(block, float64(block[0]))
		_, _, lorenzo := refFitLine(block, prevs[b])
		regress := refResidual(block, a0, a1)
		switch t0 := math.Abs(float64(block[0]) - prevs[b]); {
		case regress < from0*0.8 && t0 == t0:
			n.bound++
		case regress < from0*0.8:
			n.nanFirst++
		case regress < lorenzo*0.8:
			n.serialRegress++
		default:
			n.serialLorenzo++
		}
		if regress == from0*0.8 {
			n.tie++
		}
	}
	return n
}

// selectionCases are tensors of 1–9 full blocks, with and without a
// partial block, of ramps and noise, and tensors of eight full blocks
// and a partial one with a special value — NaN, ±Inf, −0 or a
// subnormal — in block 0–3 of the first four-block run (each lane) and
// block 4–7 of the second, at position 0, 1 or 127 of each; at 127 it
// is the next block's prevRecon.
func selectionCases() []struct {
	name string
	data []float32
	p    lossy.Params
} {
	rng := rand.New(rand.NewSource(37))
	base := func(n int) []float32 {
		data := make([]float32, n)
		for i := range data {
			if (i/BlockSize)%3 == 2 {
				data[i] = float32(rng.NormFloat64())
			} else {
				data[i] = float32(0.01*float32(i%BlockSize)) + float32(0.001*rng.NormFloat64())
			}
		}
		return data
	}
	type tc = struct {
		name string
		data []float32
		p    lossy.Params
	}
	var cases []tc
	for blocks := 1; blocks <= 9; blocks++ {
		for _, tail := range []int{0, 37} {
			cases = append(cases, tc{fmt.Sprintf("%d_blocks+%d", blocks, tail), base(blocks*BlockSize + tail), lossy.RelBound(1e-3)})
		}
	}
	specials := []struct {
		name string
		v    float32
	}{
		{"NaN", float32(math.NaN())}, {"+Inf", float32(math.Inf(1))}, {"-Inf", float32(math.Inf(-1))},
		{"-0", float32(math.Copysign(0, -1))}, {"+min", math.SmallestNonzeroFloat32},
		{"-min", -math.SmallestNonzeroFloat32}, {"subnormal_max", math.Float32frombits(0x007fffff)},
	}
	for _, sp := range specials {
		name, v := sp.name, sp.v
		for lane := range 4 {
			for _, at := range []int{0, 1, BlockSize - 1} {
				data := base(8*BlockSize + 37)
				data[lane*BlockSize+at] = v
				data[(4+lane)*BlockSize+at] = v
				cases = append(cases, tc{fmt.Sprintf("%s/lane%d/at%d", name, lane, at), data, lossy.AbsBound(1e-3)})
			}
		}
	}
	return cases
}

// TestFourBlockSelection pins predict's four-block selection — the
// AVX2 fit, the bound and the serial fallback — to the per-block
// reference (fitLine, regressionWins) on both paths, through modes,
// coefficients, codes and outliers, over selectionCases and
// kernelCases, and checks that those reach every way a block can be
// decided (see selections).
func TestFourBlockSelection(t *testing.T) {
	var n selections
	cases := append(selectionCases(), kernelCases()...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eachPath(t, func(t *testing.T) { checkReference(t, New(), tc.data, tc.p) })
		})
		if eb, err := tc.p.Resolve(tc.data); err == nil && len(tc.data) > 0 {
			n.add(countSelections(tc.data, eb))
		}
	}
	t.Logf("four-block runs: %+v", n)
	if n.bound == 0 || n.nanFirst == 0 || n.serialRegress == 0 || n.serialLorenzo == 0 || n.tie == 0 {
		t.Fatalf("the cases missed a way to decide a block: %+v", n)
	}
}

// TestFitLanes pins fitBlocksAVX2 to the scalar fit lane by lane: the
// row-major and lane-major widened values, and each block's a0 and a1
// (fitLine), residual sum (regressionWins) and Lorenzo sum from
// prev = x[0], bit for bit; a NaN need only be a NaN. Its inputs are
// every four-block run of selectionCases, kernelCases and, unless
// -short, the MobileNetV2 update.
func TestFitLanes(t *testing.T) {
	if !haveAVX2 {
		t.Skip("the CPU lacks AVX2: only the scalar loops run")
	}
	var inputs [][]float32
	for _, tc := range append(selectionCases(), kernelCases()...) {
		inputs = append(inputs, tc.data)
	}
	if !testing.Short() {
		tensors, _ := mobileNetTensors(1)
		inputs = append(inputs, tensors...)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
	}
	sc := new(compScratch)
	lanes := 0
	for _, data := range inputs {
		for lo := 0; len(data)-lo >= 4*BlockSize; lo += 4 * BlockSize {
			fitBlocksAVX2(&sc.view, &sc.lanes, (*[4 * BlockSize]float32)(data[lo:]), &sc.fits)
			f := &sc.fits
			for j := range 4 {
				block := data[lo+j*BlockSize : lo+(j+1)*BlockSize]
				for i, v := range block {
					if !same(sc.view[j*BlockSize+i], float64(v)) || !same(sc.lanes[4*i+j], float64(v)) {
						t.Fatalf("block %d value %d: widened %v and %v, want %v", lo/BlockSize+j, i, sc.view[j*BlockSize+i], sc.lanes[4*i+j], v)
					}
				}
				a0, a1, from0 := refFitLine(block, float64(block[0]))
				want := [4]float64{a0, a1, refResidual(block, a0, a1), from0}
				got := [4]float64{f.a0[j], f.a1[j], f.regress[j], f.lorenzo[j]}
				for k, name := range []string{"a0", "a1", "regress", "lorenzo"} {
					if !same(got[k], want[k]) {
						t.Fatalf("block %d: %s %v (%#x), scalar %v (%#x)", lo/BlockSize+j, name,
							got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
				lanes++
			}
		}
	}
	t.Logf("%d lanes", lanes)
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
							want[i], wantRecon, _ = refElement(block[i], tc.a0+float64(tc.a1*float64(i)), tc.eb)
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
							_, r, _ := refElement(block[i], tc.a0+float64(tc.a1*float64(i)), tc.eb)
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
		tensors, _ := mobileNetTensors(1)
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

// fuzzMaxValues caps the values one FuzzSZ2Compress input contributes:
// five blocks, one four-block run and one block past it, so each input
// reaches both of predict's selection paths and a run stays fast enough
// for the engine to explore. Longer kernelCases seeds reach the fuzz
// body cut to this prefix; TestKernelMatchesReference and
// TestFourBlockSelection check them whole, on both paths.
const fuzzMaxValues = 5 * BlockSize

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
		data := make([]float32, min(len(raw)/4, fuzzMaxValues))
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
