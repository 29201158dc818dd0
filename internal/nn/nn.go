// Package nn is the trainable neural-network substrate used for the
// paper's accuracy experiments (Table I accuracy columns, Fig. 4, 5, 6).
//
// Go has no PyTorch; training the paper's full-size models is out of
// reach, so the accuracy experiments run on "mini" variants of the
// three architectures (dense networks with matching depth/width ratios)
// trained on synthetic datasets — see the README's "Reproducing the
// paper". What matters for the reproduction is that the *same FedSZ
// pipeline* compresses the updates, with error injected by the real
// compressors.
//
// The package implements batched forward/backward passes for Dense,
// ReLU, Conv2D, MaxPool2D and Flatten layers, softmax cross-entropy
// loss, and SGD with momentum.
package nn

import (
	"fmt"
	"math"

	"fedsz/internal/model"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// Layer is one differentiable network stage. Forward consumes a batch
// and caches what Backward needs; Backward consumes dL/dout and
// returns dL/din, accumulating parameter gradients internally.
type Layer interface {
	Forward(x *Batch) *Batch
	Backward(grad *Batch) *Batch
	Params() []*Param
}

// Param is a trainable tensor with its gradient and momentum buffer.
type Param struct {
	Name     string
	W        *tensor.Tensor
	Grad     *tensor.Tensor
	velocity []float32
}

// Batch is a batch of activations: Data is row-major [N, Dim...].
type Batch struct {
	N    int
	Dim  int // product of per-sample dims
	Data []float32
}

// NewBatch allocates a batch of n samples with dim features each.
func NewBatch(n, dim int) *Batch {
	return &Batch{N: n, Dim: dim, Data: make([]float32, n*dim)}
}

// Row returns sample i's feature slice.
func (b *Batch) Row(i int) []float32 { return b.Data[i*b.Dim : (i+1)*b.Dim] }

// Network is a sequential feed-forward network.
type Network struct {
	Name   string
	layers []Layer
}

// NewNetwork builds a network from layers.
func NewNetwork(name string, layers ...Layer) *Network {
	return &Network{Name: name, layers: layers}
}

// Forward runs the batch through all layers, returning the logits.
func (n *Network) Forward(x *Batch) *Batch {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// Params returns all trainable parameters.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the trainable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.NumElements()
	}
	return total
}

// TrainBatch performs one SGD step on (x, labels) and returns the mean
// cross-entropy loss.
func (n *Network) TrainBatch(x *Batch, labels []int, lr, momentum float32) float32 {
	logits := n.Forward(x)
	loss, grad := SoftmaxCrossEntropy(logits, labels)
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	for _, p := range n.Params() {
		p.step(lr, momentum)
	}
	return loss
}

// Predict returns the argmax class per sample.
func (n *Network) Predict(x *Batch) []int {
	logits := n.Forward(x)
	out := make([]int, logits.N)
	for i := 0; i < logits.N; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
		_ = best
	}
	return out
}

// Accuracy evaluates top-1 accuracy on (x, labels).
func (n *Network) Accuracy(x *Batch, labels []int) float64 {
	pred := n.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	if len(labels) == 0 {
		return 0
	}
	return float64(correct) / float64(len(labels))
}

// StateDict exports the parameters as a model.StateDict with
// torch-style names ("layers.0.weight", ...), so the FedSZ partitioner
// treats dense weights as lossy candidates and biases as metadata.
func (n *Network) StateDict() *model.StateDict {
	sd := model.NewStateDict()
	for _, p := range n.Params() {
		if err := sd.Add(model.Entry{Name: p.Name, DType: model.Float32, Tensor: p.W.Clone()}); err != nil {
			panic(err) // parameter names are unique by construction
		}
	}
	return sd
}

// LoadStateDict copies parameter values from sd into the network.
func (n *Network) LoadStateDict(sd *model.StateDict) error {
	for _, p := range n.Params() {
		e, ok := sd.Get(p.Name)
		if !ok {
			return fmt.Errorf("nn: state dict missing %q", p.Name)
		}
		if e.DType != model.Float32 || e.Tensor.NumElements() != p.W.NumElements() {
			return fmt.Errorf("nn: state dict entry %q incompatible", p.Name)
		}
		copy(p.W.Data(), e.Tensor.Data())
	}
	return nil
}

// step applies one SGD-with-momentum update and clears the gradient.
func (p *Param) step(lr, momentum float32) {
	w, g := p.W.Data(), p.Grad.Data()
	if p.velocity == nil {
		p.velocity = make([]float32, len(w))
	}
	for i := range w {
		p.velocity[i] = float32(momentum*p.velocity[i]) - float32(lr*g[i])
		w[i] += p.velocity[i]
		g[i] = 0
	}
}

// SoftmaxCrossEntropy returns the mean loss and dL/dlogits for a batch.
func SoftmaxCrossEntropy(logits *Batch, labels []int) (float32, *Batch) {
	grad := NewBatch(logits.N, logits.Dim)
	var loss float64
	for i := 0; i < logits.N; i++ {
		row := logits.Row(i)
		gRow := grad.Row(i)
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		logSum := math.Log(sum)
		y := labels[i]
		loss += logSum - float64(row[y]-maxV)
		invN := 1 / float32(logits.N)
		for j := range gRow {
			p := float32(math.Exp(float64(row[j]-maxV)) / sum)
			if j == y {
				p--
			}
			gRow[j] = p * invN
		}
	}
	return float32(loss / float64(logits.N)), grad
}

// initRNG derives a deterministic stream for a named parameter.
func initRNG(seed int64, name string) *randSource {
	h := int64(1469598103934665603)
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	return &randSource{rng: stats.NewRNG(seed ^ h)}
}

type randSource struct {
	rng interface{ NormFloat64() float64 }
}

func (r *randSource) normal(sigma float64) float32 {
	return float32(r.rng.NormFloat64() * sigma)
}
