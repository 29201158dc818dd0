package orchestrator

import "fedsz/internal/model"

// Aggregator exposes the aggregator a round folds into, so the reuse
// tests can tell whose sums a round holds.
func (r *Round) Aggregator() *Aggregator { return r.agg }

// FoldSums adds every float32 entry of sd, scaled by w, into a's sums
// with the loop Contributor.Fold runs, opening no contribution: the
// fold's arithmetic alone, for BenchmarkFold.
func (a *Aggregator) FoldSums(sd *model.StateDict, w float64) {
	for i := 0; i < sd.Len(); i++ {
		if e := sd.At(i); e.DType == model.Float32 {
			idx := a.index[e.Name]
			addScaled(a.shards[a.shardOf[idx]].sums[idx], e.Tensor.Data(), w)
		}
	}
}

// FoldPartialSums adds p's float32 entries' sums into a's with the loop
// Contributor.FoldPartial runs, for BenchmarkFoldPartial.
func (a *Aggregator) FoldPartialSums(p *Partial) {
	for _, e := range p.Entries {
		if idx := a.index[e.Name]; e.DType == model.Float32 {
			addRaw(a.shards[a.shardOf[idx]].sums[idx], e.Sums)
		}
	}
}
