package orchestrator

// Aggregator exposes the aggregator a round folds into, so the reuse
// tests can tell whose sums a round holds.
func (r *Round) Aggregator() *Aggregator { return r.agg }
