package orchestrator

import (
	"errors"
	"fmt"
	"math"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// asyncBuffer is the FedBuff-style aggregation state: one streaming
// sharded accumulator that commits a new global model every
// BufferSize updates. Unlike a sync round there is no participant
// set — any joined client may submit at any time, tagged with the
// global version it trained from so stale work can be damped.
type asyncBuffer struct {
	agg      *Aggregator
	buffered int
	open     int // contributions registered but not yet settled
	epoch    int // commits so far; names the buffer generation
}

// AsyncCommit reports what a contribution's commit did to the global
// model.
type AsyncCommit struct {
	// Committed is true when this contribution filled the buffer and
	// advanced the global model.
	Committed bool
	// Version is the current global version after the submit.
	Version int
	// Global is the new global model when Committed, else nil.
	Global *model.StateDict
	// Stats accounts the commit when Committed.
	Stats RoundStats

	// prev is the global model this commit replaced, carried to the
	// out-of-lock notify so the bound scheduler's O(params) scan never
	// runs under the coordinator mutex.
	prev *model.StateDict
}

// StalenessWeight returns the FedBuff-style damping factor 1/√(1+τ)
// for an update trained τ versions behind the current global model.
func StalenessWeight(staleness int) float64 {
	if staleness < 0 {
		staleness = 0
	}
	return 1 / math.Sqrt(1+float64(staleness))
}

// AsyncContributor opens a streaming contribution in async mode.
// trainedVersion is the global version the client trained from; the
// contribution weight is damped by 1/√(1+staleness) unless damping is
// disabled. The returned commit function seals the contribution and
// reports whether it triggered a buffer commit; like Round
// contributions, a failed decode must Abort. A full buffer held open
// by another in-flight contribution commits when that contribution
// settles — if the settle is an Abort, the commit reaches drivers
// only through Config.OnAsyncCommit.
func (c *Coordinator) AsyncContributor(id string, weight float64, trainedVersion int) (*Contributor, func() (AsyncCommit, error), error) {
	if c.cfg.Mode != ModeAsync {
		return nil, nil, errors.New("orchestrator: AsyncContributor on a sync coordinator")
	}
	c.mu.Lock()
	if _, ok := c.clients[id]; !ok {
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("orchestrator: client %q not joined", id)
	}
	staleness := c.version - trainedVersion
	obsAsyncStaleness.Observe(float64(staleness))
	if !c.cfg.NoStalenessDamping {
		weight *= StalenessWeight(staleness)
	}
	buf := c.async
	epoch := buf.epoch
	// The open-contribution count lives on the coordinator and is
	// mutated only under c.mu — registered here, released in the
	// commit/abort settles below, checked by the commit condition. A
	// commit of this epoch therefore cannot happen while this
	// contribution is between registration and settle, so folds can
	// never land in a retired buffer. (Aggregator.Inflight is not used
	// here: it decrements inside Contributor.Commit before the settle
	// callback runs, which would open exactly that window.)
	ct, err := buf.agg.Contributor(weight)
	if err != nil {
		c.mu.Unlock()
		return nil, nil, err
	}
	buf.open++
	c.mu.Unlock()

	var result AsyncCommit
	ct.onCommit = func() error {
		c.mu.Lock()
		if c.async.epoch != epoch {
			c.mu.Unlock()
			// The buffer this contribution folded into has already
			// committed; its folds landed in a retired accumulator and
			// are simply lost. Only possible if the driver committed
			// a non-quiescent buffer through FlushAsync.
			return fmt.Errorf("orchestrator: async buffer epoch %d already committed", epoch)
		}
		c.async.open--
		c.async.buffered++
		obsAsyncDepth.Set(int64(c.async.buffered))
		result.Version = c.version
		err := c.maybeAsyncCommitLocked(&result)
		c.mu.Unlock()
		c.notifyAsyncCommit(result)
		return err
	}
	ct.onAbort = func(reason DropReason) {
		// An abort can be the settle that makes a full buffer
		// quiescent; re-check the commit condition. The resulting
		// commit belongs to no submitter, so OnAsyncCommit is the only
		// place it surfaces.
		var res AsyncCommit
		c.mu.Lock()
		if c.async.epoch == epoch {
			c.async.open--
			_ = c.maybeAsyncCommitLocked(&res)
		}
		c.mu.Unlock()
		c.notifyAsyncCommit(res)
		// The aborted update never reached the global model; withdraw
		// the client's pending per-encoder state.
		c.notifyDrop(id, reason)
	}
	commit := func() (AsyncCommit, error) {
		if err := ct.Commit(); err != nil {
			return AsyncCommit{}, err
		}
		return result, nil
	}
	return ct, commit, nil
}

// maybeAsyncCommitLocked commits the buffer when it is both full and
// quiescent (no contributor mid-fold). A full buffer with in-flight
// contributors defers the commit to whichever settle comes last, so a
// straddling update lands in the same (slightly larger) commit
// instead of leaking partial folds into a finalized model. Caller
// holds c.mu.
func (c *Coordinator) maybeAsyncCommitLocked(result *AsyncCommit) error {
	if c.async.buffered < c.cfg.BufferSize || c.async.open > 0 {
		return nil
	}
	return c.asyncCommitLocked(result)
}

// SubmitAsync folds a fully decoded update — the buffer-path
// convenience over AsyncContributor.
func (c *Coordinator) SubmitAsync(id string, sd *model.StateDict, weight float64, trainedVersion int) (AsyncCommit, error) {
	ct, commit, err := c.AsyncContributor(id, weight, trainedVersion)
	if err != nil {
		return AsyncCommit{}, err
	}
	if err := foldEntries(ct, sd); err != nil {
		return AsyncCommit{}, err
	}
	return commit()
}

// FlushAsync commits whatever the buffer holds (fewer than BufferSize
// updates), e.g. at shutdown. It is a no-op returning Committed=false
// on an empty buffer, and refuses a non-quiescent buffer — in-flight
// contributions must settle first, or their partial folds would leak
// into the published model.
func (c *Coordinator) FlushAsync() (AsyncCommit, error) {
	if c.cfg.Mode != ModeAsync {
		return AsyncCommit{}, errors.New("orchestrator: FlushAsync on a sync coordinator")
	}
	c.mu.Lock()
	if c.async.open > 0 {
		n := c.async.open
		c.mu.Unlock()
		return AsyncCommit{}, fmt.Errorf("orchestrator: flush with %d contribution(s) in flight; settle them first", n)
	}
	if c.async.buffered == 0 {
		v := c.version
		c.mu.Unlock()
		return AsyncCommit{Version: v}, nil
	}
	var result AsyncCommit
	err := c.asyncCommitLocked(&result)
	c.mu.Unlock()
	if err != nil {
		return AsyncCommit{}, err
	}
	c.notifyAsyncCommit(result)
	return result, nil
}

// notifyAsyncCommit delivers a committed result to the bound
// scheduler and the OnAsyncCommit hook (both outside the coordinator
// lock); non-commits are skipped.
func (c *Coordinator) notifyAsyncCommit(res AsyncCommit) {
	if !res.Committed {
		return
	}
	if c.cfg.Bound != nil {
		c.cfg.Bound.ObserveCommit(res.prev, res.Global, res.Stats)
	}
	if c.cfg.OnAsyncCommit != nil {
		c.cfg.OnAsyncCommit(res)
	}
}

// asyncCommitLocked finalizes the buffer, mixes it into the global
// model with rate α, resets the buffer for the next epoch, and fills
// result. Caller holds c.mu.
func (c *Coordinator) asyncCommitLocked(result *AsyncCommit) error {
	buf := c.async
	avg, err := buf.agg.Finalize()
	if err != nil {
		return err
	}
	mixed, err := mixStateDicts(c.global, avg, c.cfg.ServerMix)
	if err != nil {
		return err
	}
	prev := c.global
	c.global = mixed
	c.version++
	c.commits++
	*result = AsyncCommit{
		Committed: true,
		Version:   c.version,
		Global:    mixed,
		Stats: RoundStats{
			Round:     c.commits - 1,
			Version:   c.version,
			Sampled:   c.cfg.BufferSize,
			Committed: buf.buffered,
			Folded:    buf.buffered,
			AggMemory: buf.agg.MemoryBytes(),
		},
		prev: prev,
	}
	c.async = &asyncBuffer{
		agg:   NewAggregator(mixed, c.cfg.Shards),
		epoch: buf.epoch + 1,
	}
	obsAsyncCommits.Inc()
	obsAsyncDepth.Set(0)
	return nil
}

// mixStateDicts returns (1-α)·g + α·u elementwise over Float32
// entries; α = 1 returns u as-is. Int64 entries come from u.
func mixStateDicts(g, u *model.StateDict, alpha float64) (*model.StateDict, error) {
	if alpha >= 1 {
		return u, nil
	}
	out := model.NewStateDict()
	for _, ue := range u.Entries() {
		if ue.DType != model.Float32 {
			if err := out.Add(ue); err != nil {
				return nil, err
			}
			continue
		}
		ge, ok := g.Get(ue.Name)
		if !ok || ge.DType != model.Float32 || ge.Tensor.NumElements() != ue.Tensor.NumElements() {
			return nil, fmt.Errorf("orchestrator: mix entry %q incompatible with global", ue.Name)
		}
		gd, ud := ge.Tensor.Data(), ue.Tensor.Data()
		data := make([]float32, len(ud))
		for i := range data {
			data[i] = float32(float64((1-alpha)*float64(gd[i])) + float64(alpha*float64(ud[i])))
		}
		t, err := tensor.FromData(data, ue.Tensor.Shape()...)
		if err != nil {
			return nil, err
		}
		if err := out.Add(model.Entry{Name: ue.Name, DType: model.Float32, Tensor: t}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
