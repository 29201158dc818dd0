package fl

import (
	"fmt"
	"io"
	"sync"
	"time"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// ReferenceAware is implemented by codecs that encode against a shared
// reference model (e.g. DeltaCodec). The federation runtimes call
// SetReference with each round's broadcast global model on both the
// sending and receiving side.
type ReferenceAware interface {
	SetReference(ref *model.StateDict)
}

// DeltaCodec transmits the difference between the client's state and a
// reference (the last broadcast global model) instead of the raw
// state. One local epoch moves weights only slightly, so deltas have a
// much smaller dynamic range than the weights themselves and compress
// substantially better under a range-relative bound — a natural
// composition with FedSZ in the spirit of the paper's §VIII "works
// with other techniques" argument.
//
// Both endpoints must track the same reference: the sender snapshots
// the global model it trained from via SetReference, and the receiver
// does the same before decoding. RunSim's rounds and the transport
// tiers guarantee this ordering.
type DeltaCodec struct {
	inner Codec

	mu  sync.RWMutex
	ref *model.StateDict
}

var _ Codec = (*DeltaCodec)(nil)

// NewDeltaCodec wraps inner (nil selects PlainCodec) with delta
// encoding against a reference model.
func NewDeltaCodec(inner Codec) *DeltaCodec {
	if inner == nil {
		inner = PlainCodec{}
	}
	return &DeltaCodec{inner: inner}
}

// Name implements Codec.
func (c *DeltaCodec) Name() string { return "delta+" + c.inner.Name() }

// SetReference records the model deltas are taken against. Both sender
// and receiver must call it with the same state before EncodeTo/DecodeFrom.
func (c *DeltaCodec) SetReference(ref *model.StateDict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ref = ref.Clone()
}

// EncodeTo implements Codec: the delta streams through the inner
// codec's streaming path.
func (c *DeltaCodec) EncodeTo(w io.Writer, sd *model.StateDict) (UpdateStats, error) {
	c.mu.RLock()
	ref := c.ref
	c.mu.RUnlock()
	if ref == nil {
		return UpdateStats{}, fmt.Errorf("fl: delta codec has no reference")
	}
	start := time.Now()
	delta, err := Diff(sd, ref)
	if err != nil {
		return UpdateStats{}, err
	}
	st, err := c.inner.EncodeTo(w, delta)
	if err != nil {
		return UpdateStats{}, err
	}
	st.EncodeTime = time.Since(start)
	st.WholeImage = false // the frame is meaningless without the reference
	return st, nil
}

// DecodeFrom implements Codec.
func (c *DeltaCodec) DecodeFrom(r io.Reader) (*model.StateDict, error) {
	c.mu.RLock()
	ref := c.ref
	c.mu.RUnlock()
	if ref == nil {
		return nil, fmt.Errorf("fl: delta codec has no reference")
	}
	delta, err := c.inner.DecodeFrom(r)
	if err != nil {
		return nil, err
	}
	return AddDelta(ref, delta)
}

// Diff returns a - b elementwise over Float32 entries (Int64 entries
// copy from a). The dicts must share structure.
func Diff(a, b *model.StateDict) (*model.StateDict, error) {
	return combine(a, b, func(x, y float32) float32 { return x - y })
}

// AddDelta returns ref + delta elementwise over Float32 entries.
func AddDelta(ref, delta *model.StateDict) (*model.StateDict, error) {
	return combine(delta, ref, func(d, r float32) float32 { return r + d })
}

func combine(a, b *model.StateDict, f func(av, bv float32) float32) (*model.StateDict, error) {
	out := model.NewStateDict()
	for _, ea := range a.Entries() {
		if ea.DType == model.Int64 {
			if err := out.Add(model.Entry{
				Name:  ea.Name,
				DType: model.Int64,
				Ints:  append([]int64(nil), ea.Ints...),
			}); err != nil {
				return nil, err
			}
			continue
		}
		eb, ok := b.Get(ea.Name)
		if !ok || eb.DType != model.Float32 || eb.Tensor.NumElements() != ea.Tensor.NumElements() {
			return nil, fmt.Errorf("fl: delta structure mismatch at %q", ea.Name)
		}
		ad, bd := ea.Tensor.Data(), eb.Tensor.Data()
		data := make([]float32, len(ad))
		for i := range data {
			data[i] = f(ad[i], bd[i])
		}
		t, err := tensor.FromData(data, ea.Tensor.Shape()...)
		if err != nil {
			return nil, err
		}
		if err := out.Add(model.Entry{Name: ea.Name, DType: model.Float32, Tensor: t}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
