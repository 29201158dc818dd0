// Package baseline implements the FL-compression baselines the paper
// surveys in §III-C — Top-K gradient sparsification (Aji & Heafield
// 2017; Lin et al. 2018) and QSGD-style stochastic uniform quantization
// (Alistarh et al. 2017) — as update codecs compatible with the
// federation runtime.
//
// The paper could not compare against these directly ("not
// open-source") and argues instead that FedSZ is a *last step* that
// composes with them (§VIII). This package makes that claim testable:
// both baselines are implemented as standalone codecs, and Stack
// composes any sparsifier/quantizer with the FedSZ pipeline so the
// combination can be measured (the `ablations` bench experiment does).
//
// Deprecated: new code should reach these techniques through the
// compressor-family registry instead — "topk", "randk" and "qsgd" are
// first-class families (package family) selectable per tensor by the
// adaptive control plane and composable with per-client error
// feedback (core.Feedback). This package is kept for the paper's
// §VIII stacked-codec experiments and remains byte-identical to
// previous releases; it gains no new capabilities.
package baseline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// ErrCorrupt reports a malformed baseline payload.
var ErrCorrupt = errors.New("baseline: corrupt payload")

// Transform rewrites a state dict in place-of transmission: the
// sparsifier/quantizer stage. It must return a dict with identical
// structure.
type Transform interface {
	Name() string
	Apply(sd *model.StateDict) (*model.StateDict, error)
}

// TopK keeps the K largest-magnitude values per weight tensor and
// zeroes the rest — magnitude-based gradient sparsification.
type TopK struct {
	// Fraction of entries kept per tensor, in (0, 1].
	Fraction float64
	// Threshold: tensors with at most this many elements pass through
	// untouched (mirrors the FedSZ partition threshold).
	Threshold int
}

// Name implements Transform.
func (t TopK) Name() string { return fmt.Sprintf("topk-%.2g", t.Fraction) }

// Apply implements Transform.
func (t TopK) Apply(sd *model.StateDict) (*model.StateDict, error) {
	if t.Fraction <= 0 || t.Fraction > 1 {
		return nil, fmt.Errorf("baseline: topk fraction %v out of (0,1]", t.Fraction)
	}
	thr := t.Threshold
	if thr == 0 {
		thr = 1000
	}
	out := model.NewStateDict()
	for _, e := range sd.Entries() {
		cp := e
		if e.DType == model.Float32 && e.IsWeightNamed() && e.NumElements() > thr {
			cp.Tensor = topKTensor(e.Tensor, t.Fraction)
		} else if e.Tensor != nil {
			cp.Tensor = e.Tensor.Clone()
		}
		if err := out.Add(cp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func topKTensor(t *tensor.Tensor, fraction float64) *tensor.Tensor {
	data := t.Data()
	k := int(math.Ceil(float64(len(data)) * fraction))
	if k >= len(data) {
		return t.Clone()
	}
	mags := make([]float32, len(data))
	for i, v := range data {
		mags[i] = float32(math.Abs(float64(v)))
	}
	sort.Slice(mags, func(i, j int) bool { return mags[i] > mags[j] })
	cut := mags[k-1]
	out := t.Clone()
	od := out.Data()
	kept := 0
	for i, v := range od {
		if float32(math.Abs(float64(v))) >= cut && kept < k {
			kept++
			continue
		}
		od[i] = 0
	}
	return out
}

// QSGD quantizes each weight tensor to 2^Bits+1 uniform levels of its
// per-tensor max magnitude with stochastic (unbiased) rounding.
type QSGD struct {
	// Bits per value (1..16); the paper's survey cites 1-bit signSGD
	// through 8-bit QSGD.
	Bits int
	// Threshold as in TopK.
	Threshold int
	// Seed drives the stochastic rounding.
	Seed int64
}

// Name implements Transform.
func (q QSGD) Name() string { return fmt.Sprintf("qsgd-%db", q.Bits) }

// Apply implements Transform.
func (q QSGD) Apply(sd *model.StateDict) (*model.StateDict, error) {
	if q.Bits < 1 || q.Bits > 16 {
		return nil, fmt.Errorf("baseline: qsgd bits %d out of [1,16]", q.Bits)
	}
	thr := q.Threshold
	if thr == 0 {
		thr = 1000
	}
	rng := stats.NewRNG(q.Seed)
	levels := float64(int(1) << q.Bits)
	out := model.NewStateDict()
	for _, e := range sd.Entries() {
		cp := e
		if e.DType == model.Float32 && e.IsWeightNamed() && e.NumElements() > thr {
			t := e.Tensor.Clone()
			data := t.Data()
			var maxAbs float64
			for _, v := range data {
				if a := math.Abs(float64(v)); a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs > 0 {
				for i, v := range data {
					x := float64(v) / maxAbs * levels
					lo := math.Floor(x)
					p := x - lo
					if rng.Float64() < p {
						lo++
					}
					data[i] = float32(lo / levels * maxAbs)
				}
			}
			cp.Tensor = t
		} else if e.Tensor != nil {
			cp.Tensor = e.Tensor.Clone()
		}
		if err := out.Add(cp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Codec wraps a Transform with a wire format: transformed weight
// tensors are encoded sparsely (Top-K) or densely via the inner codec.
// It satisfies fl.Codec so baselines drop into fl.RunSim directly.
type Codec struct {
	transform Transform
	inner     fl.Codec
}

var _ fl.Codec = (*Codec)(nil)

// NewCodec wraps transform over inner (nil inner selects the plain
// serializer). When inner is the FedSZ codec this is the paper's §VIII
// "last-step" composition: sparsify/quantize first, FedSZ after.
func NewCodec(transform Transform, inner fl.Codec) *Codec {
	if inner == nil {
		inner = fl.PlainCodec{}
	}
	return &Codec{transform: transform, inner: inner}
}

// Name implements fl.Codec.
func (c *Codec) Name() string { return c.transform.Name() + "+" + c.inner.Name() }

// Encode implements fl.Codec.
func (c *Codec) Encode(sd *model.StateDict) ([]byte, fl.UpdateStats, error) {
	start := time.Now()
	transformed, err := c.transform.Apply(sd)
	if err != nil {
		return nil, fl.UpdateStats{}, err
	}
	buf, st, err := c.inner.Encode(transformed)
	if err != nil {
		return nil, fl.UpdateStats{}, err
	}
	st.EncodeTime = time.Since(start)
	st.OriginalBytes = sd.SizeBytes()
	return buf, st, nil
}

// Decode implements fl.Codec.
func (c *Codec) Decode(buf []byte) (*model.StateDict, error) {
	return c.inner.Decode(buf)
}

// EncodeTo implements fl.Codec: the transformed dict streams through
// the inner codec's streaming path.
func (c *Codec) EncodeTo(w io.Writer, sd *model.StateDict) (fl.UpdateStats, error) {
	start := time.Now()
	transformed, err := c.transform.Apply(sd)
	if err != nil {
		return fl.UpdateStats{}, err
	}
	st, err := c.inner.EncodeTo(w, transformed)
	if err != nil {
		return fl.UpdateStats{}, err
	}
	st.EncodeTime = time.Since(start)
	st.OriginalBytes = sd.SizeBytes()
	return st, nil
}

// DecodeFrom implements fl.Codec.
func (c *Codec) DecodeFrom(r io.Reader) (*model.StateDict, error) {
	return c.inner.DecodeFrom(r)
}

// SparseCodec serializes updates with run-length-skipped sparse tensor
// payloads — the natural wire format after Top-K sparsification. Dense
// tensors survive too (at a small overhead), so the codec is safe as a
// general inner stage.
type SparseCodec struct{}

var _ fl.Codec = SparseCodec{}

// Name implements fl.Codec.
func (SparseCodec) Name() string { return "sparse" }

// Encode implements fl.Codec.
func (SparseCodec) Encode(sd *model.StateDict) ([]byte, fl.UpdateStats, error) {
	start := time.Now()
	out := []byte("FSP1")
	out = binary.AppendUvarint(out, uint64(sd.Len()))
	for _, e := range sd.Entries() {
		out = binary.AppendUvarint(out, uint64(len(e.Name)))
		out = append(out, e.Name...)
		out = append(out, byte(e.DType))
		switch e.DType {
		case model.Float32:
			shape := e.Tensor.Shape()
			out = binary.AppendUvarint(out, uint64(len(shape)))
			for _, d := range shape {
				out = binary.AppendUvarint(out, uint64(d))
			}
			out = append(out, SparseEncode(e.Tensor.Data())...)
		case model.Int64:
			out = binary.AppendUvarint(out, uint64(len(e.Ints)))
			for _, v := range e.Ints {
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		default:
			return nil, fl.UpdateStats{}, fmt.Errorf("baseline: dtype %d", e.DType)
		}
	}
	return out, fl.UpdateStats{
		OriginalBytes:   sd.SizeBytes(),
		CompressedBytes: int64(len(out)),
		EncodeTime:      time.Since(start),
	}, nil
}

// EncodeTo implements fl.Codec. The sparse wire format is not
// self-delimiting, so the streaming pair rides the length-prefixed
// buffered adapter.
func (s SparseCodec) EncodeTo(w io.Writer, sd *model.StateDict) (fl.UpdateStats, error) {
	return fl.EncodeToBuffered(s, w, sd)
}

// DecodeFrom implements fl.Codec, reversing EncodeTo.
func (s SparseCodec) DecodeFrom(r io.Reader) (*model.StateDict, error) {
	return fl.DecodeFromBuffered(s, r)
}

// Decode implements fl.Codec.
func (SparseCodec) Decode(buf []byte) (*model.StateDict, error) {
	if len(buf) < 4 || string(buf[:4]) != "FSP1" {
		return nil, fmt.Errorf("%w: sparse magic", ErrCorrupt)
	}
	buf = buf[4:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("%w: sparse count", ErrCorrupt)
	}
	buf = buf[n:]
	sd := model.NewStateDict()
	for i := uint64(0); i < count; i++ {
		nameLen, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < nameLen+1 {
			return nil, fmt.Errorf("%w: sparse entry %d", ErrCorrupt, i)
		}
		name := string(buf[n : n+int(nameLen)])
		dtype := model.DType(buf[n+int(nameLen)])
		buf = buf[n+int(nameLen)+1:]
		switch dtype {
		case model.Float32:
			ndims, n := binary.Uvarint(buf)
			if n <= 0 || ndims > 16 {
				return nil, fmt.Errorf("%w: %q dims", ErrCorrupt, name)
			}
			buf = buf[n:]
			shape := make([]int, ndims)
			for d := range shape {
				v, n := binary.Uvarint(buf)
				if n <= 0 {
					return nil, fmt.Errorf("%w: %q dim", ErrCorrupt, name)
				}
				shape[d] = int(v)
				buf = buf[n:]
			}
			data, rest, err := sparseDecodeConsume(buf)
			if err != nil {
				return nil, fmt.Errorf("%w: %q: %v", ErrCorrupt, name, err)
			}
			buf = rest
			t, err := tensor.FromData(data, shape...)
			if err != nil {
				return nil, fmt.Errorf("%w: %q: %v", ErrCorrupt, name, err)
			}
			if err := sd.Add(model.Entry{Name: name, DType: model.Float32, Tensor: t}); err != nil {
				return nil, err
			}
		case model.Int64:
			cnt, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < cnt*8 {
				return nil, fmt.Errorf("%w: %q ints", ErrCorrupt, name)
			}
			buf = buf[n:]
			ints := make([]int64, cnt)
			for j := range ints {
				ints[j] = int64(binary.LittleEndian.Uint64(buf[j*8:]))
			}
			buf = buf[cnt*8:]
			if err := sd.Add(model.Entry{Name: name, DType: model.Int64, Ints: ints}); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: %q dtype %d", ErrCorrupt, name, dtype)
		}
	}
	return sd, nil
}

// SparseEncode encodes a sparsified tensor as (count, index-delta,
// value) triples — the transport format Top-K implementations use. It
// achieves ≈1/fraction compression on top of sparsification.
func SparseEncode(data []float32) []byte {
	nz := 0
	for _, v := range data {
		if v != 0 {
			nz++
		}
	}
	out := make([]byte, 0, 10+nz*8)
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = binary.AppendUvarint(out, uint64(nz))
	prev := 0
	for i, v := range data {
		if v == 0 {
			continue
		}
		out = binary.AppendUvarint(out, uint64(i-prev))
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		prev = i
	}
	return out
}

// SparseDecode reverses SparseEncode.
func SparseDecode(buf []byte) ([]float32, error) {
	out, _, err := sparseDecodeConsume(buf)
	return out, err
}

// sparseDecodeConsume decodes one sparse tensor and returns the
// remaining bytes, allowing several tensors to share a buffer.
func sparseDecodeConsume(buf []byte) ([]float32, []byte, error) {
	total, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: total", ErrCorrupt)
	}
	buf = buf[n:]
	nz, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: count", ErrCorrupt)
	}
	buf = buf[n:]
	out := make([]float32, total)
	pos := 0
	for i := uint64(0); i < nz; i++ {
		delta, n := binary.Uvarint(buf)
		if n <= 0 || len(buf) < n+4 {
			return nil, nil, fmt.Errorf("%w: entry %d", ErrCorrupt, i)
		}
		pos += int(delta)
		if pos >= len(out) {
			return nil, nil, fmt.Errorf("%w: index %d out of range", ErrCorrupt, pos)
		}
		out[pos] = math.Float32frombits(binary.LittleEndian.Uint32(buf[n:]))
		buf = buf[n+4:]
	}
	return out, buf, nil
}
