package orchestrator

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// refFinalize is Finalize as one serial loop over the entries in
// reference order, one element at a time. The fanned-out Finalize must
// reproduce it bit for bit.
func refFinalize(a *Aggregator) (*model.StateDict, error) {
	a.mu.Lock()
	total := a.totalWeight
	updates := a.updates
	poisoned := a.poisoned
	a.mu.Unlock()
	if poisoned {
		return nil, ErrPoisoned
	}
	if updates == 0 || total <= 0 {
		return nil, ErrNoUpdates
	}

	out := model.NewStateDict()
	for i, name := range a.names {
		if a.dtypes[i] == model.Int64 {
			a.mu.Lock()
			ints := append([]int64(nil), a.ints[i]...)
			a.mu.Unlock()
			if err := out.Add(model.Entry{Name: name, DType: model.Int64, Ints: ints}); err != nil {
				return nil, err
			}
			continue
		}
		shard := &a.shards[a.shardOf[i]]
		shard.mu.Lock()
		sum := shard.sums[i]
		data := make([]float32, len(sum))
		for j, v := range sum {
			data[j] = float32(v / total)
		}
		shard.mu.Unlock()
		t, err := tensor.FromData(data, a.shapes[i]...)
		if err != nil {
			return nil, err
		}
		if err := out.Add(model.Entry{Name: name, DType: model.Float32, Tensor: t}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameBits reports the first entry where got and want differ in name,
// dtype, shape or any element's bits.
func sameBits(got, want *model.StateDict) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d entries, want %d", got.Len(), want.Len())
	}
	for i, w := range want.Entries() {
		g := got.At(i)
		if g.Name != w.Name || g.DType != w.DType {
			return fmt.Errorf("entry %d is %q/%v, want %q/%v", i, g.Name, g.DType, w.Name, w.DType)
		}
		if w.DType == model.Int64 {
			if !slices.Equal(g.Ints, w.Ints) {
				return fmt.Errorf("%s: ints differ", w.Name)
			}
			continue
		}
		if !g.Tensor.HasShape(w.Tensor.Shape()...) {
			return fmt.Errorf("%s: shape %v, want %v", w.Name, g.Tensor.Shape(), w.Tensor.Shape())
		}
		gd, wd := g.Tensor.Data(), w.Tensor.Data()
		for j := range wd {
			if math.Float32bits(gd[j]) != math.Float32bits(wd[j]) {
				return fmt.Errorf("%s[%d] = %v, want %v", w.Name, j, gd[j], wd[j])
			}
		}
	}
	return nil
}

// withProcs runs fn at GOMAXPROCS n and restores the previous value.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestCommitFanOutIsBitIdentical drives Finalize and Reset across
// GOMAXPROCS × shard counts on seeded MobileNetV2(4) contributions:
// the parallel global must equal the serial reference bit for bit, a
// Partial view read after Finalize must still hold the sums, and Reset
// must leave every sum zero.
func TestCommitFanOutIsBitIdentical(t *testing.T) {
	arch := model.MobileNetV2(4)
	ref := model.BuildStateDict(arch, 42)
	updates := []*model.StateDict{
		model.BuildStateDict(arch, 7),
		model.BuildStateDict(arch, 8),
		model.BuildStateDict(arch, 9),
	}
	weights := []float64{100, 101, 37.5}
	for _, procs := range []int{1, 2, 8} {
		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				withProcs(procs, func() {
					a := NewAggregator(ref, shards)
					if a.NumShards() != shards {
						t.Fatalf("%d shards, want %d", a.NumShards(), shards)
					}
					for k, sd := range updates {
						if err := a.FoldStateDict(sd, weights[k]); err != nil {
							t.Fatal(err)
						}
					}
					want, err := refFinalize(a)
					if err != nil {
						t.Fatal(err)
					}
					before := partialBits(a)
					got, err := a.Finalize()
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, want); err != nil {
						t.Fatalf("Finalize differs from the serial reference: %v", err)
					}
					after := partialBits(a)
					if !slices.Equal(after, before) {
						t.Fatal("Finalize changed the sums a Partial view reads")
					}
					nonzero := false
					for _, b := range after[2:] {
						nonzero = nonzero || b != 0
					}
					if !nonzero {
						t.Fatal("Partial after Finalize reads all-zero sums")
					}

					a.Reset()
					for _, e := range a.Partial().Entries {
						for j, v := range e.Sums {
							if math.Float64bits(v) != 0 {
								t.Fatalf("%s[%d] = %v after Reset", e.Name, j, v)
							}
						}
					}
					if _, err := a.Finalize(); !errors.Is(err, ErrNoUpdates) {
						t.Fatalf("Finalize after Reset: %v, want ErrNoUpdates", err)
					}
				})
			})
		}
	}
}

// partialBits snapshots the Partial view: weight, update count and
// every Float32 sum's bits.
func partialBits(a *Aggregator) []uint64 {
	p := a.Partial()
	bits := []uint64{math.Float64bits(p.TotalWeight), uint64(p.Updates)}
	for _, e := range p.Entries {
		for _, v := range e.Sums {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

// TestCommitClaimsLargestShardFirst pins the claim order: shards by
// descending element count, so the classifier's shard does not start
// last.
func TestCommitClaimsLargestShardFirst(t *testing.T) {
	a := NewAggregator(model.BuildStateDict(model.MobileNetV2(4), 42), 16)
	elems := func(s int) int {
		n := 0
		for _, sum := range a.shards[s].sums {
			n += len(sum)
		}
		return n
	}
	if len(a.byElems) != a.NumShards() {
		t.Fatalf("claim order covers %d of %d shards", len(a.byElems), a.NumShards())
	}
	seen := make([]bool, a.NumShards())
	for k, s := range a.byElems {
		if seen[s] {
			t.Fatalf("shard %d claimed twice", s)
		}
		seen[s] = true
		if k > 0 && elems(s) > elems(a.byElems[k-1]) {
			t.Fatalf("claim order %v is not by descending element count", a.byElems)
		}
	}
	if a.byElems[0] == 0 {
		t.Fatalf("claim order starts at shard 0: the fixture no longer puts its largest shard later in entry order")
	}
}

// TestNonFiniteWeightRejected: a NaN or infinite contribution weight
// would commit an all-NaN global, so Contributor refuses it, and a
// total weight that overflows to +Inf fails Finalize with ErrNoUpdates
// instead of committing zeros and NaNs.
func TestNonFiniteWeightRejected(t *testing.T) {
	ref := model.BuildStateDict(model.MobileNetV2(4), 42)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		a := NewAggregator(ref, 4)
		if _, err := a.Contributor(w); err == nil {
			t.Errorf("Contributor(%v) accepted", w)
		}
		if err := a.FoldStateDict(ref, w); err == nil {
			t.Errorf("FoldStateDict(_, %v) accepted", w)
		}
		if _, err := a.PartialContributor(w, 1); err == nil {
			t.Errorf("PartialContributor(%v, 1) accepted", w)
		}
		if a.Inflight() != 0 {
			t.Errorf("weight %v: %d contributors left in flight", w, a.Inflight())
		}
		if _, err := a.Finalize(); !errors.Is(err, ErrNoUpdates) {
			t.Errorf("weight %v: Finalize = %v, want ErrNoUpdates", w, err)
		}
	}

	a := NewAggregator(ref, 4)
	for range 2 {
		if err := a.FoldStateDict(ref, math.MaxFloat64); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Finalize(); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("Finalize over an infinite total weight = %v, want ErrNoUpdates", err)
	}
}
