package nn

import (
	"fmt"
	"math"

	"fedsz/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b, W is [out, in].
type Dense struct {
	in, out int
	weight  *Param
	bias    *Param
	lastX   *Batch
}

// NewDense returns a Dense layer with Kaiming-initialized weights. The
// name prefix becomes the state-dict key prefix (e.g. "layers.0").
func NewDense(prefix string, in, out int, seed int64) *Dense {
	d := &Dense{
		in:  in,
		out: out,
		weight: &Param{
			Name: prefix + ".weight",
			W:    tensor.New(out, in),
			Grad: tensor.New(out, in),
		},
		bias: &Param{
			Name: prefix + ".bias",
			W:    tensor.New(out),
			Grad: tensor.New(out),
		},
	}
	rng := initRNG(seed, d.weight.Name)
	sigma := math.Sqrt(2 / float64(in))
	w := d.weight.W.Data()
	for i := range w {
		w[i] = rng.normal(sigma)
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *Batch) *Batch {
	if x.Dim != d.in {
		panic(fmt.Sprintf("nn: dense %s input dim %d != %d", d.weight.Name, x.Dim, d.in))
	}
	d.lastX = x
	y := NewBatch(x.N, d.out)
	w := d.weight.W.Data()
	b := d.bias.W.Data()
	for i := 0; i < x.N; i++ {
		xr := x.Row(i)
		yr := y.Row(i)
		for o := 0; o < d.out; o++ {
			wRow := w[o*d.in : (o+1)*d.in]
			var acc float32
			for k, xv := range xr {
				acc += float32(xv * wRow[k])
			}
			yr[o] = acc + b[o]
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *Batch) *Batch {
	x := d.lastX
	gw := d.weight.Grad.Data()
	gb := d.bias.Grad.Data()
	w := d.weight.W.Data()
	out := NewBatch(x.N, d.in)
	for i := 0; i < x.N; i++ {
		xr := x.Row(i)
		gr := grad.Row(i)
		or := out.Row(i)
		for o := 0; o < d.out; o++ {
			g := gr[o]
			if g == 0 {
				continue
			}
			gb[o] += g
			wRow := w[o*d.in : (o+1)*d.in]
			gwRow := gw[o*d.in : (o+1)*d.in]
			for k, xv := range xr {
				gwRow[k] += float32(g * xv)
				or[k] += float32(g * wRow[k])
			}
		}
	}
	return out
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// ReLU is an elementwise rectifier.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *Batch) *Batch {
	y := NewBatch(x.N, x.Dim)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		if v > 0 {
			y.Data[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *Batch) *Batch {
	out := NewBatch(grad.N, grad.Dim)
	for i, g := range grad.Data {
		if r.mask[i] {
			out.Data[i] = g
		}
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Conv2D is a stride-1 same-channel 2-D convolution over [C,H,W]
// samples with zero padding, weight [out, in, k, k].
type Conv2D struct {
	inC, outC, k, h, w int
	weight             *Param
	bias               *Param
	lastX              *Batch
}

// NewConv2D returns a Conv2D for inC×h×w inputs with outC k×k filters
// (zero padding keeps spatial dims).
func NewConv2D(prefix string, inC, outC, k, h, w int, seed int64) *Conv2D {
	c := &Conv2D{
		inC: inC, outC: outC, k: k, h: h, w: w,
		weight: &Param{
			Name: prefix + ".weight",
			W:    tensor.New(outC, inC, k, k),
			Grad: tensor.New(outC, inC, k, k),
		},
		bias: &Param{
			Name: prefix + ".bias",
			W:    tensor.New(outC),
			Grad: tensor.New(outC),
		},
	}
	rng := initRNG(seed, c.weight.Name)
	sigma := math.Sqrt(2 / float64(inC*k*k))
	wd := c.weight.W.Data()
	for i := range wd {
		wd[i] = rng.normal(sigma)
	}
	return c
}

// OutDim returns the flattened output dimension.
func (c *Conv2D) OutDim() int { return c.outC * c.h * c.w }

// Forward implements Layer.
func (c *Conv2D) Forward(x *Batch) *Batch {
	if x.Dim != c.inC*c.h*c.w {
		panic(fmt.Sprintf("nn: conv %s input dim %d != %d", c.weight.Name, x.Dim, c.inC*c.h*c.w))
	}
	c.lastX = x
	y := NewBatch(x.N, c.OutDim())
	w := c.weight.W.Data()
	b := c.bias.W.Data()
	pad := c.k / 2
	for n := 0; n < x.N; n++ {
		xr := x.Row(n)
		yr := y.Row(n)
		for oc := 0; oc < c.outC; oc++ {
			for oy := 0; oy < c.h; oy++ {
				for ox := 0; ox < c.w; ox++ {
					acc := b[oc]
					for ic := 0; ic < c.inC; ic++ {
						for ky := 0; ky < c.k; ky++ {
							iy := oy + ky - pad
							if iy < 0 || iy >= c.h {
								continue
							}
							for kx := 0; kx < c.k; kx++ {
								ix := ox + kx - pad
								if ix < 0 || ix >= c.w {
									continue
								}
								acc += float32(xr[(ic*c.h+iy)*c.w+ix] *
									w[((oc*c.inC+ic)*c.k+ky)*c.k+kx])
							}
						}
					}
					yr[(oc*c.h+oy)*c.w+ox] = acc
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *Batch) *Batch {
	x := c.lastX
	w := c.weight.W.Data()
	gw := c.weight.Grad.Data()
	gb := c.bias.Grad.Data()
	out := NewBatch(x.N, x.Dim)
	pad := c.k / 2
	for n := 0; n < x.N; n++ {
		xr := x.Row(n)
		gr := grad.Row(n)
		or := out.Row(n)
		for oc := 0; oc < c.outC; oc++ {
			for oy := 0; oy < c.h; oy++ {
				for ox := 0; ox < c.w; ox++ {
					g := gr[(oc*c.h+oy)*c.w+ox]
					if g == 0 {
						continue
					}
					gb[oc] += g
					for ic := 0; ic < c.inC; ic++ {
						for ky := 0; ky < c.k; ky++ {
							iy := oy + ky - pad
							if iy < 0 || iy >= c.h {
								continue
							}
							for kx := 0; kx < c.k; kx++ {
								ix := ox + kx - pad
								if ix < 0 || ix >= c.w {
									continue
								}
								wi := ((oc*c.inC+ic)*c.k+ky)*c.k + kx
								xi := (ic*c.h+iy)*c.w + ix
								gw[wi] += float32(g * xr[xi])
								or[xi] += float32(g * w[wi])
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// MaxPool2D is a 2×2 stride-2 max pool over [C,H,W] samples.
type MaxPool2D struct {
	c, h, w int
	argmax  []int32
}

// NewMaxPool2D returns a pool layer for c×h×w inputs (h, w even).
func NewMaxPool2D(c, h, w int) *MaxPool2D {
	return &MaxPool2D{c: c, h: h, w: w}
}

// OutDim returns the flattened output dimension.
func (p *MaxPool2D) OutDim() int { return p.c * (p.h / 2) * (p.w / 2) }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *Batch) *Batch {
	oh, ow := p.h/2, p.w/2
	y := NewBatch(x.N, p.OutDim())
	if cap(p.argmax) < x.N*p.OutDim() {
		p.argmax = make([]int32, x.N*p.OutDim())
	}
	p.argmax = p.argmax[:x.N*p.OutDim()]
	for n := 0; n < x.N; n++ {
		xr := x.Row(n)
		yr := y.Row(n)
		for c := 0; c < p.c; c++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := 0
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							idx := (c*p.h+oy*2+dy)*p.w + ox*2 + dx
							if xr[idx] > best {
								best = xr[idx]
								bestIdx = idx
							}
						}
					}
					oIdx := (c*oh+oy)*ow + ox
					yr[oIdx] = best
					p.argmax[n*p.OutDim()+oIdx] = int32(bestIdx)
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *Batch) *Batch {
	out := NewBatch(grad.N, p.c*p.h*p.w)
	for n := 0; n < grad.N; n++ {
		gr := grad.Row(n)
		or := out.Row(n)
		for i, g := range gr {
			or[p.argmax[n*p.OutDim()+i]] += g
		}
	}
	return out
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }
