// Package dataset provides the synthetic image-classification datasets
// standing in for CIFAR-10, Fashion-MNIST and Caltech101 (paper Table
// IV): each class is a smooth random template; samples are noisy,
// scaled copies. Input dimensions and class counts match the real
// datasets; semantics do not need to — the accuracy experiments only
// require learnable structure whose training is perturbed by real
// compressor noise (README, "Reproducing the paper").
package dataset

import (
	"fmt"
	"math"

	"fedsz/internal/nn"
	"fedsz/internal/stats"
)

// Dataset is a labeled dense-feature dataset.
type Dataset struct {
	Name    string
	X       []float32 // row-major [N, Dim]
	Y       []int
	N       int
	Dim     int
	Classes int
}

// Spec describes a synthetic dataset family.
type Spec struct {
	Name    string
	Dim     int     // flattened input dimension
	Classes int     //
	Noise   float64 // per-pixel noise std relative to template scale
	// Sep scales the class-specific template component relative to the
	// shared base image. Small Sep means classes share most of their
	// structure (as natural images do), which makes learning gradual
	// rather than one-shot.
	Sep float64
}

// CIFAR10 mirrors CIFAR-10's geometry: 32×32×3, 10 classes. The
// sep/noise pairing is tuned so federated training converges gradually
// over ~10 rounds, as in the paper's Fig. 4 curves.
func CIFAR10() Spec {
	return Spec{Name: "cifar10", Dim: 32 * 32 * 3, Classes: 10, Noise: 1.6, Sep: 0.2}
}

// FashionMNIST mirrors Fashion-MNIST: 28×28, 10 classes (the easiest
// of the three tasks, as in the paper's Fig. 4 ordering).
func FashionMNIST() Spec {
	return Spec{Name: "fmnist", Dim: 28 * 28, Classes: 10, Noise: 1.2, Sep: 0.4}
}

// Caltech101 mirrors Caltech101's harder profile: larger inputs
// (downscaled here for tractability) and 101 classes.
func Caltech101() Spec {
	return Spec{Name: "caltech101", Dim: 48 * 48 * 3, Classes: 101, Noise: 1.3, Sep: 0.5}
}

// Specs returns the paper's three datasets (Table IV order).
func Specs() []Spec { return []Spec{CIFAR10(), FashionMNIST(), Caltech101()} }

// ByName returns the spec for a dataset name.
func ByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Generate synthesizes n samples of the dataset family. Class
// templates are smooth random fields; each sample adds Gaussian pixel
// noise and a random per-sample gain, which keeps the task learnable
// but not trivial.
func (s Spec) Generate(n int, seed int64) *Dataset {
	rng := stats.NewRNG(seed)
	smoothWalk := func(scale float64) []float32 {
		t := make([]float32, s.Dim)
		v := 0.0
		for i := range t {
			v += float64(rng.NormFloat64() * 0.25 * scale)
			v *= 0.98
			t[i] = float32(v)
		}
		return t
	}
	sep := s.Sep
	if sep == 0 {
		sep = 0.2
	}
	// Classes share a smooth base image plus a small class-specific
	// deviation, mirroring how natural image classes share statistics.
	base := smoothWalk(1)
	templates := make([][]float32, s.Classes)
	for c := range templates {
		delta := smoothWalk(sep)
		t := make([]float32, s.Dim)
		for i := range t {
			t[i] = base[i] + delta[i]
		}
		templates[c] = t
	}
	d := &Dataset{
		Name:    s.Name,
		X:       make([]float32, n*s.Dim),
		Y:       make([]int, n),
		N:       n,
		Dim:     s.Dim,
		Classes: s.Classes,
	}
	for i := 0; i < n; i++ {
		c := i % s.Classes // balanced
		d.Y[i] = c
		gain := float32(1 + float64(rng.NormFloat64()*0.1))
		row := d.X[i*s.Dim : (i+1)*s.Dim]
		t := templates[c]
		for j := range row {
			row[j] = float32(gain*t[j]) + float32(rng.NormFloat64()*s.Noise)
		}
		standardize(row)
	}
	return d
}

// standardize normalizes a sample to zero mean and unit variance — the
// usual input-normalization step, which keeps gradient scales
// comparable across input dimensions and datasets.
func standardize(row []float32) {
	var sum float64
	for _, v := range row {
		sum += float64(v)
	}
	mean := sum / float64(len(row))
	var ss float64
	for _, v := range row {
		dv := float64(v) - mean
		ss += float64(dv * dv)
	}
	std := math.Sqrt(ss / float64(len(row)))
	if std == 0 {
		std = 1
	}
	for i, v := range row {
		row[i] = float32((float64(v) - mean) / std)
	}
}

// TrainTest splits the dataset into train/test partitions after a
// deterministic shuffle. frac is the training fraction. Both partitions
// share the class templates (unlike two Generate calls, which would
// synthesize unrelated tasks).
func (d *Dataset) TrainTest(frac float64, seed int64) (*Dataset, *Dataset) {
	cp := &Dataset{
		Name:    d.Name,
		X:       append([]float32(nil), d.X...),
		Y:       append([]int(nil), d.Y...),
		N:       d.N,
		Dim:     d.Dim,
		Classes: d.Classes,
	}
	cp.Shuffle(seed)
	nTrain := int(float64(cp.N) * frac)
	train := &Dataset{
		Name: d.Name + "/train", X: cp.X[:nTrain*cp.Dim], Y: cp.Y[:nTrain],
		N: nTrain, Dim: cp.Dim, Classes: cp.Classes,
	}
	test := &Dataset{
		Name: d.Name + "/test", X: cp.X[nTrain*cp.Dim:], Y: cp.Y[nTrain:],
		N: cp.N - nTrain, Dim: cp.Dim, Classes: cp.Classes,
	}
	return train, test
}

// Batch converts samples [lo, hi) into an nn.Batch plus labels.
func (d *Dataset) Batch(lo, hi int) (*nn.Batch, []int) {
	if lo < 0 || hi > d.N || lo > hi {
		panic(fmt.Sprintf("dataset: batch [%d,%d) out of range (N=%d)", lo, hi, d.N))
	}
	b := nn.NewBatch(hi-lo, d.Dim)
	copy(b.Data, d.X[lo*d.Dim:hi*d.Dim])
	labels := make([]int, hi-lo)
	copy(labels, d.Y[lo:hi])
	return b, labels
}

// Shuffle permutes samples in place, deterministically per seed.
func (d *Dataset) Shuffle(seed int64) {
	rng := stats.NewRNG(seed)
	tmp := make([]float32, d.Dim)
	for i := d.N - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		ri := d.X[i*d.Dim : (i+1)*d.Dim]
		rj := d.X[j*d.Dim : (j+1)*d.Dim]
		copy(tmp, ri)
		copy(ri, rj)
		copy(rj, tmp)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	}
}

// Split partitions the dataset IID into k equal shards (the paper's
// multi-client setup) — sample i goes to shard i mod k.
func (d *Dataset) Split(k int) []*Dataset {
	if k <= 0 {
		panic("dataset: split needs k > 0")
	}
	shards := make([]*Dataset, k)
	for s := range shards {
		count := d.N / k
		if s < d.N%k {
			count++
		}
		shards[s] = &Dataset{
			Name:    fmt.Sprintf("%s/shard%d", d.Name, s),
			X:       make([]float32, 0, count*d.Dim),
			Y:       make([]int, 0, count),
			Dim:     d.Dim,
			Classes: d.Classes,
		}
	}
	for i := 0; i < d.N; i++ {
		s := shards[i%k]
		s.X = append(s.X, d.X[i*d.Dim:(i+1)*d.Dim]...)
		s.Y = append(s.Y, d.Y[i])
		s.N++
	}
	return shards
}

// SplitDirichlet partitions the dataset across k clients with
// label-skewed (non-IID) proportions drawn from a symmetric
// Dirichlet(alpha) per class — the standard federated heterogeneity
// model. Small alpha concentrates each class on few clients; large
// alpha approaches the IID split.
func (d *Dataset) SplitDirichlet(k int, alpha float64, seed int64) []*Dataset {
	if k <= 0 {
		panic("dataset: split needs k > 0")
	}
	if alpha <= 0 {
		panic("dataset: dirichlet alpha must be positive")
	}
	rng := stats.NewRNG(seed)
	shards := make([]*Dataset, k)
	for s := range shards {
		shards[s] = &Dataset{
			Name:    fmt.Sprintf("%s/dir%d", d.Name, s),
			Dim:     d.Dim,
			Classes: d.Classes,
		}
	}
	// Group sample indices by class.
	byClass := make([][]int, d.Classes)
	for i := 0; i < d.N; i++ {
		byClass[d.Y[i]] = append(byClass[d.Y[i]], i)
	}
	assign := func(shard *Dataset, idx int) {
		shard.X = append(shard.X, d.X[idx*d.Dim:(idx+1)*d.Dim]...)
		shard.Y = append(shard.Y, d.Y[idx])
		shard.N++
	}
	for _, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		props := dirichlet(rng, k, alpha)
		// Convert proportions to cumulative cut points over the class.
		cum := 0.0
		start := 0
		for s := 0; s < k; s++ {
			cum += props[s]
			end := int(cum * float64(len(idxs)))
			if s == k-1 {
				end = len(idxs)
			}
			for _, idx := range idxs[start:end] {
				assign(shards[s], idx)
			}
			start = end
		}
	}
	return shards
}

// dirichlet samples a symmetric Dirichlet(alpha) via normalized Gamma
// draws (Marsaglia–Tsang for alpha >= 1; boosting for alpha < 1).
func dirichlet(rng interface {
	Float64() float64
	NormFloat64() float64
}, k int, alpha float64) []float64 {
	out := make([]float64, k)
	var sum float64
	for i := range out {
		g := gammaSample(rng, alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(k)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func gammaSample(rng interface {
	Float64() float64
	NormFloat64() float64
}, alpha float64) float64 {
	if alpha < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := rng.Float64()
		if u == 0 {
			u = 1e-300
		}
		return gammaSample(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = v * v * v // float64(v) below keeps 1-v from fusing this product
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-float64(v)+math.Log(v))) {
			return d * v
		}
	}
}

// Chance returns the chance-level accuracy (1/classes) — the floor the
// paper's SZx rows collapse to.
func (d *Dataset) Chance() float64 { return 1 / float64(d.Classes) }

// SNR estimates the dataset's signal-to-noise ratio in dB, useful for
// sanity checks of generated data.
func (d *Dataset) SNR() float64 {
	if d.N == 0 {
		return 0
	}
	classSum := make([][]float64, d.Classes)
	classCount := make([]int, d.Classes)
	for c := range classSum {
		classSum[c] = make([]float64, d.Dim)
	}
	for i := 0; i < d.N; i++ {
		c := d.Y[i]
		classCount[c]++
		row := d.X[i*d.Dim : (i+1)*d.Dim]
		for j, v := range row {
			classSum[c][j] += float64(v)
		}
	}
	var signal, noise float64
	var count int
	for i := 0; i < d.N; i++ {
		c := d.Y[i]
		if classCount[c] == 0 {
			continue
		}
		row := d.X[i*d.Dim : (i+1)*d.Dim]
		for j, v := range row {
			mean := classSum[c][j] / float64(classCount[c])
			signal += float64(mean * mean)
			dv := float64(v) - mean
			noise += float64(dv * dv)
			count++
		}
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(signal/noise)
}
