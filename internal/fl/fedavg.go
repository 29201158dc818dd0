package fl

import (
	"errors"
	"fmt"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// FedAvg computes the sample-count-weighted average of client state
// dicts (McMahan et al. 2017). All dicts must share structure. Int64
// entries (e.g. BatchNorm counters) are taken from the first update.
//
// Arithmetic contract: each element accumulates count·float64(v) in
// update order and the total divides once at the end — exactly the
// fold orchestrator.Aggregator applies, so the streaming sharded path
// produces byte-identical float32 weights to this sequential
// reference when contributions fold in the same order.
func FedAvg(updates []*model.StateDict, sampleCounts []int) (*model.StateDict, error) {
	if len(updates) == 0 {
		return nil, errors.New("fl: no updates to aggregate")
	}
	if len(sampleCounts) != len(updates) {
		return nil, fmt.Errorf("fl: %d updates but %d sample counts", len(updates), len(sampleCounts))
	}
	var total float64
	for _, c := range sampleCounts {
		if c < 0 {
			return nil, fmt.Errorf("fl: negative sample count %d", c)
		}
		total += float64(c)
	}
	if total == 0 {
		return nil, errors.New("fl: zero total samples")
	}

	ref := updates[0]
	out := model.NewStateDict()
	for _, e := range ref.Entries() {
		if e.DType == model.Int64 {
			if err := out.Add(model.Entry{
				Name:  e.Name,
				DType: model.Int64,
				Ints:  append([]int64(nil), e.Ints...),
			}); err != nil {
				return nil, err
			}
			continue
		}
		acc := make([]float64, e.Tensor.NumElements())
		for u, sd := range updates {
			ue, ok := sd.Get(e.Name)
			if !ok {
				return nil, fmt.Errorf("fl: update %d missing entry %q", u, e.Name)
			}
			if ue.DType != model.Float32 || ue.Tensor.NumElements() != len(acc) {
				return nil, fmt.Errorf("fl: update %d entry %q incompatible", u, e.Name)
			}
			w := float64(sampleCounts[u])
			for i, v := range ue.Tensor.Data() {
				// float64(...) keeps the product rounded on its own
				// (unfused), as the aggregator's fold rounds it.
				acc[i] += float64(w * float64(v))
			}
		}
		data := make([]float32, len(acc))
		for i, v := range acc {
			data[i] = float32(v / total)
		}
		t, err := tensor.FromData(data, e.Tensor.Shape()...)
		if err != nil {
			return nil, err
		}
		if err := out.Add(model.Entry{Name: e.Name, DType: model.Float32, Tensor: t}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
