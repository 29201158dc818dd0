package orchestrator

import (
	"errors"
	"fmt"

	"fedsz/internal/model"
)

// Partial is the unnormalized state of an Aggregator: the weighted
// float64 sums, the total committed weight and the contributor count —
// everything an upstream aggregator needs to fold a whole region's
// work as if each client had committed directly. Because FedAvg here
// is sum/total arithmetic (PR 4), partial sums compose exactly: the
// raw float64 bits travel upstream, the upstream fold adds them
// without rescaling, and integer sample-count weights sum exactly in
// float64, so a 2-tier aggregation is byte-equivalent to the flat one
// up to float64 addition regrouping absorbed by the final float32
// projection.
type Partial struct {
	// TotalWeight is the region's committed weight (Σ sample counts).
	TotalWeight float64
	// Updates is the number of client updates folded into the sums.
	Updates int
	// Entries carry the per-tensor partial state in reference order.
	Entries []PartialEntry
	// Prior is an opaque blob the partial wire format carries before
	// Span. It once held a region's merged plan prior; this module's
	// edges send it empty and its coordinators ignore it.
	Prior []byte
	// Span is an opaque span-summary trailer (see package obs) the
	// region attaches so its round timings join the federation trace;
	// nil from pre-tracing regions. It rides the wire after the prior,
	// where old decoders ignore it, and never touches the fold path.
	Span []byte
}

// PartialEntry is one entry's partially folded state. Its slices may be
// storage someone else reuses — an aggregator's own sums (Partial), or a
// decoding tier's landing buffer — so whoever holds an entry keeps it
// only as long as that owner's contract says: a Contributor that folded
// it, until the contribution settles.
type PartialEntry struct {
	Name  string
	DType model.DType
	Shape []int     // Float32 entries: tensor shape
	Sums  []float64 // Float32 entries: unnormalized weighted sums
	Ints  []int64   // Int64 entries: first committed update's values
}

// NumElements returns the entry's element count.
func (e PartialEntry) NumElements() int {
	if e.DType == model.Int64 {
		return len(e.Ints)
	}
	return len(e.Sums)
}

// Partial returns the aggregator's unnormalized state as a view: the
// entries' Sums, Ints and Shape alias the aggregator's own storage
// rather than copying it (a ResNet-sized region is tens of MB of
// float64). The view is a consistent region total when taken after
// every contributor settled, and stays valid until the next fold into
// the aggregator or its next Reset (the owning tier's NextRound);
// encode or fold it upstream before then, and treat it as read-only. A
// caller that needs a stable copy clones the slices. A poisoned
// aggregator (ErrPoisoned) reports no updates, an empty region upstream.
func (a *Aggregator) Partial() *Partial {
	a.mu.Lock()
	p := &Partial{TotalWeight: a.totalWeight, Updates: a.updates}
	if a.poisoned {
		p.TotalWeight, p.Updates = 0, 0
	}
	ints := make([][]int64, len(a.ints))
	copy(ints, a.ints)
	a.mu.Unlock()

	p.Entries = make([]PartialEntry, len(a.names))
	for i, name := range a.names {
		e := PartialEntry{Name: name, DType: a.dtypes[i]}
		if a.dtypes[i] == model.Int64 {
			if e.Ints = ints[i]; e.Ints == nil {
				e.Ints = make([]int64, a.nInts[i])
			}
		} else {
			e.Shape = a.shapes[i]
			// The lock orders this read after every fold that released it.
			shard := &a.shards[a.shardOf[i]]
			shard.mu.Lock()
			e.Sums = shard.sums[i]
			shard.mu.Unlock()
		}
		p.Entries[i] = e
	}
	return p
}

// PartialContributor opens a contribution that folds another
// aggregator's Partial: the sums add in raw (they are already
// weighted), Commit adds totalWeight to the aggregate total and
// accounts updates client-level contributions, and Abort subtracts
// exactly the raw sums that were folded — a region that dies
// mid-stream withdraws wholesale, like a single client would.
func (a *Aggregator) PartialContributor(totalWeight float64, updates int) (*Contributor, error) {
	if updates <= 0 {
		return nil, fmt.Errorf("orchestrator: partial contribution with %d updates", updates)
	}
	ct, err := a.Contributor(totalWeight)
	if err != nil {
		return nil, err
	}
	ct.commits = updates
	return ct, nil
}

// FoldPartial applies one partial entry: the already-weighted float64
// sums add in verbatim (no weight scaling), preserving the downstream
// aggregator's bits exactly. The sums slice is referenced for a
// potential Abort undo until the contribution settles — callers must
// not mutate it before Commit or Abort has returned, and may reuse it
// from then on.
func (c *Contributor) FoldPartial(e PartialEntry) error {
	idx, ok := c.a.index[e.Name]
	if !ok {
		return fmt.Errorf("orchestrator: partial entry %q not in reference model", e.Name)
	}
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return errors.New("orchestrator: fold on a closed contribution")
	}
	if c.seen[idx] {
		c.mu.Unlock()
		return fmt.Errorf("orchestrator: duplicate partial entry %q", e.Name)
	}
	c.seen[idx] = true
	c.mu.Unlock()

	unsee := func() {
		c.mu.Lock()
		c.seen[idx] = false
		c.mu.Unlock()
	}

	if c.a.dtypes[idx] == model.Int64 {
		if e.DType != model.Int64 || len(e.Ints) != c.a.nInts[idx] {
			unsee()
			return fmt.Errorf("orchestrator: partial entry %q incompatible", e.Name)
		}
		c.mu.Lock()
		if c.intsAt == nil {
			c.intsAt = make(map[int][]int64)
		}
		c.intsAt[idx] = e.Ints
		c.mu.Unlock()
		return nil
	}

	shard := &c.a.shards[c.a.shardOf[idx]]
	shard.mu.Lock()
	sum := shard.sums[idx]
	if e.DType != model.Float32 || len(e.Sums) != len(sum) {
		shard.mu.Unlock()
		unsee()
		return fmt.Errorf("orchestrator: partial entry %q incompatible", e.Name)
	}
	addRaw(sum, e.Sums)
	shard.mu.Unlock()

	c.mu.Lock()
	c.folded = append(c.folded, foldedEntry{idx: idx, raw: e.Sums})
	c.mu.Unlock()
	return nil
}

// PartialContributor opens a regional partial-sum contribution for one
// sampled participant (an edge aggregator standing in for its whole
// region). The round accounts one committed participant; the
// aggregator accounts updates client-level contributions, surfaced in
// RoundStats.Folded.
func (r *Round) PartialContributor(id string, totalWeight float64, updates int) (*Contributor, error) {
	return r.open(id, func() (*Contributor, error) { return r.agg.PartialContributor(totalWeight, updates) })
}

// SubmitPartial folds a complete regional partial in one call —
// contributor, per-entry folds, commit — the partial-sum counterpart
// of Round.Submit.
func (r *Round) SubmitPartial(id string, p *Partial) error {
	ct, err := r.PartialContributor(id, p.TotalWeight, p.Updates)
	if err != nil {
		return err
	}
	for _, e := range p.Entries {
		if err := ct.FoldPartial(e); err != nil {
			ct.Abort()
			return err
		}
	}
	return ct.Commit()
}
