// Package tensor provides the dense float32 tensor type that the model
// substrate, the neural-network substrate and the FedSZ pipeline share.
// FL model parameters are flattened to 1-D before compression
// (paper Algorithm 1), so the type deliberately stays minimal: a shape
// and contiguous row-major data.
package tensor

import (
	"fmt"
	"slices"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. An empty
// shape yields a scalar (one element).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float32, n),
	}
}

// FromData wraps data in a tensor of the given shape. The slice is
// retained, not copied.
func FromData(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d", d)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elements, data has %d", shape, n, len(data))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the extent of dimension i, without Shape's copy.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// HasShape reports whether the tensor's shape is exactly shape, without
// Shape's copy.
func (t *Tensor) HasShape(shape ...int) bool { return slices.Equal(t.shape, shape) }

// NumElements returns the total element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// SizeBytes returns the in-memory payload size.
func (t *Tensor) SizeBytes() int { return len(t.data) * 4 }

// Data returns the underlying storage. Mutations are visible to the
// tensor; callers that need isolation should Clone first.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	data := make([]float32, len(t.data))
	copy(data, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: data}
}

// Reshape returns a view of the same data with a new shape. The element
// count must match.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	return FromData(t.data, shape...)
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

// String implements fmt.Stringer with a compact description.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.shape, len(t.data))
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != shape rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}
