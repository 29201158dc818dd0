package orchestrator

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// ErrNoUpdates reports a finalize with nothing aggregated.
var ErrNoUpdates = errors.New("orchestrator: no committed updates")

// ErrPoisoned reports a finalize of sums that an aborted contribution
// could not be subtracted back out of, because its redo failed.
var ErrPoisoned = errors.New("orchestrator: aggregate poisoned by a failed undo")

// Aggregator is a streaming, sharded FedAvg accumulator: decoded
// tensor entries fold into per-tensor weighted sums as they arrive off
// each connection, so the server never holds more than the float64
// accumulator plus the updates currently in flight — not one full
// state dict per client until round end, which is what the sequential
// fl.FedAvg path costs.
//
// The entry space of the reference model is split into contiguous
// index ranges balanced by element count (tensor-range sharding), each
// range guarded by its own lock, so N concurrent uplinks folding
// different ranges aggregate in parallel and contention is confined to
// clients touching the same shard at the same instant.
//
// Arithmetic matches fl.FedAvg exactly: each fold adds
// weight·float64(v) into a float64 sum and Finalize divides by the
// total committed weight, so folding the same updates in the same
// order produces byte-identical float32 weights to the sequential
// reference. Contributions racing into one shard may reorder the
// float64 additions and perturb last bits; every other property holds
// regardless of order.
//
// The round's commit — Finalize's projection and Reset's clearing — runs
// on every core: workers claim whole shards, largest first, and each
// element is computed exactly as the serial loop would, so the output
// is bit-identical at any GOMAXPROCS.
type Aggregator struct {
	names  []string
	index  map[string]int
	dtypes []model.DType
	shapes [][]int // Float32 entries: tensor shape
	nInts  []int   // Int64 entries: expected length

	shardOf []int
	shards  []aggShard
	byElems []int // shard indices in descending element count: the commit's claim order

	mu          sync.Mutex
	totalWeight float64
	updates     int
	inflight    int       // contributors opened but not yet settled
	poisoned    bool      // an Abort could not undo its folds; the sums are abandoned
	ints        [][]int64 // adopted from the first committed update
}

// aggShard owns one contiguous range of entry indices. The sums slice
// lives on the Aggregator (indexed by entry), the lock here serializes
// folds into the range.
type aggShard struct {
	mu   sync.Mutex
	sums [][]float64 // indexed by entry index; nil outside this shard's range
}

// NewAggregator builds an accumulator shaped like ref. Every update
// folded into it must match ref's entry names, dtypes and shapes —
// the structural contract FedAvg enforces across clients. shards ≤ 0
// selects one shard per 4 entries, capped at 16.
func NewAggregator(ref *model.StateDict, shards int) *Aggregator {
	entries := ref.Entries()
	if shards <= 0 {
		shards = len(entries) / 4
		if shards > 16 {
			shards = 16
		}
	}
	if shards < 1 {
		shards = 1
	}
	if shards > len(entries) && len(entries) > 0 {
		shards = len(entries)
	}

	a := &Aggregator{
		names:   make([]string, len(entries)),
		index:   make(map[string]int, len(entries)),
		dtypes:  make([]model.DType, len(entries)),
		shapes:  make([][]int, len(entries)),
		nInts:   make([]int, len(entries)),
		shardOf: make([]int, len(entries)),
		shards:  make([]aggShard, shards),
		ints:    make([][]int64, len(entries)),
	}
	var totalElems int64
	for i, e := range entries {
		a.names[i] = e.Name
		a.index[e.Name] = i
		a.dtypes[i] = e.DType
		if e.DType == model.Float32 {
			a.shapes[i] = e.Tensor.Shape()
			totalElems += int64(e.Tensor.NumElements())
		} else {
			a.nInts[i] = len(e.Ints)
		}
	}

	// Tensor-range sharding: cut the entry order into `shards`
	// contiguous ranges of roughly equal element count, so the big
	// conv/fc tensors spread across locks instead of piling onto one.
	target := totalElems/int64(shards) + 1
	var acc int64
	shard := 0
	for i, e := range entries {
		a.shardOf[i] = shard
		if e.DType == model.Float32 {
			acc += int64(e.Tensor.NumElements())
			if acc >= target && shard < shards-1 {
				acc = 0
				shard++
			}
		}
	}
	for s := range a.shards {
		a.shards[s].sums = make([][]float64, len(entries))
	}
	elems := make([]int, shards)
	for i, e := range entries {
		if e.DType == model.Float32 {
			a.shards[a.shardOf[i]].sums[i] = make([]float64, e.Tensor.NumElements())
			elems[a.shardOf[i]] += e.Tensor.NumElements()
		}
	}
	a.byElems = make([]int, shards)
	for s := range a.byElems {
		a.byElems[s] = s
	}
	sort.SliceStable(a.byElems, func(x, y int) bool { return elems[a.byElems[x]] > elems[a.byElems[y]] })
	return a
}

// eachShard runs fn on every shard across runtime.GOMAXPROCS(0)
// workers, the calling goroutine among them, which claim shards in
// descending element count so the largest does not start last. With one
// worker or one shard it runs inline.
func (a *Aggregator) eachShard(fn func(shard *aggShard)) {
	workers := min(runtime.GOMAXPROCS(0), len(a.byElems))
	if workers <= 1 {
		for _, s := range a.byElems {
			fn(&a.shards[s])
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(a.byElems) {
				return
			}
			fn(&a.shards[a.byElems[k]])
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Reset empties the aggregator for the next round in place: the sums
// (kept, zeroed), the total weight, the update count and the Int64
// values adopted from the last round's first commit. Nothing may be in
// flight — a contributor still open would keep folding into sums that
// now belong to another round — and any Partial view taken earlier is
// dead. Tiers go through NextRound, which checks both. The shards are
// cleared on every core, largest first.
func (a *Aggregator) Reset() {
	a.eachShard(func(shard *aggShard) {
		shard.mu.Lock()
		for _, sum := range shard.sums {
			clear(sum)
		}
		shard.mu.Unlock()
	})
	a.mu.Lock()
	a.totalWeight, a.updates = 0, 0
	clear(a.ints)
	a.mu.Unlock()
}

// NextRound returns the aggregator a tier folds its next round into.
// The tier owns one aggregator for its lifetime: when the last round
// left it quiescent and ref still has the entry names, dtypes and
// shapes it was built for, that is a itself, Reset. Otherwise — first
// use (a nil receiver), a contributor still in flight because a driver
// broke the quiescence contract (it keeps the abandoned sums to
// itself), sums poisoned by a failed undo, or a reference model that
// changed shape — it is a fresh NewAggregator, which the tier owns from
// then on.
func (a *Aggregator) NextRound(ref *model.StateDict, shards int) *Aggregator {
	if a == nil || !a.shapedLike(ref) {
		return NewAggregator(ref, shards)
	}
	a.mu.Lock()
	settled := a.inflight == 0 && !a.poisoned
	a.mu.Unlock()
	if !settled {
		return NewAggregator(ref, shards)
	}
	a.Reset()
	return a
}

// shapedLike reports whether ref has exactly the entries a was built
// for: same order, names, dtypes and shapes.
func (a *Aggregator) shapedLike(ref *model.StateDict) bool {
	if ref.Len() != len(a.names) {
		return false
	}
	for i, name := range a.names {
		e := ref.At(i)
		if e.Name != name || e.DType != a.dtypes[i] {
			return false
		}
		if e.DType == model.Int64 {
			if len(e.Ints) != a.nInts[i] {
				return false
			}
		} else if !e.Tensor.HasShape(a.shapes[i]...) {
			return false
		}
	}
	return true
}

// NumShards returns the shard count the entry space was split into.
func (a *Aggregator) NumShards() int { return len(a.shards) }

// Updates returns the number of committed contributions.
func (a *Aggregator) Updates() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.updates
}

// MemoryBytes returns the resident footprint of the accumulator state
// — the float64 sums plus index bookkeeping. This is the server-side
// aggregation memory that replaces holding every client's decoded
// update until round end.
func (a *Aggregator) MemoryBytes() int64 {
	var n int64
	for i, dt := range a.dtypes {
		if dt == model.Float32 {
			n += int64(len(a.shards[a.shardOf[i]].sums[i])) * 8
		} else {
			n += int64(a.nInts[i]) * 8
		}
		n += int64(len(a.names[i])) + 32
	}
	return n
}

// Contributor opens one client's contribution with the given finite,
// positive aggregation weight (typically its local sample count); a
// NaN or infinite weight would commit a global of NaNs. Entries fold in
// as they are decoded; Commit seals the contribution into the
// aggregate, Abort withdraws whatever was already folded (a client
// that dies mid-stream leaves the aggregate as if it never joined, up
// to float64 rounding of the add/subtract pair).
func (a *Aggregator) Contributor(weight float64) (*Contributor, error) {
	if !(weight > 0) || math.IsInf(weight, 1) {
		return nil, fmt.Errorf("orchestrator: contribution weight %v is not finite and positive", weight)
	}
	a.mu.Lock()
	a.inflight++
	a.mu.Unlock()
	return &Contributor{
		a:       a,
		weight:  weight,
		commits: 1,
		seen:    make([]bool, len(a.names)),
	}, nil
}

// Inflight returns the number of contributors opened but not yet
// committed or aborted — the quiescence signal commit drivers check
// before finalizing.
func (a *Aggregator) Inflight() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// FoldStateDict folds a complete update in one call: contributor,
// per-entry folds in entry order, commit. It is the buffer-path
// convenience over the streaming Contributor API.
func (a *Aggregator) FoldStateDict(sd *model.StateDict, weight float64) error {
	ct, err := a.Contributor(weight)
	if err != nil {
		return err
	}
	if err := foldEntries(ct, sd); err != nil {
		return err
	}
	return ct.Commit()
}

// foldEntries feeds every entry of sd through ct in entry order,
// aborting (withdrawing partial folds) on the first error — the one
// buffer-path fold loop shared by Aggregator.FoldStateDict,
// Round.Submit and Coordinator.SubmitAsync. The caller commits.
func foldEntries(ct *Contributor, sd *model.StateDict) error {
	for _, e := range sd.Entries() {
		if err := ct.Fold(e); err != nil {
			ct.Abort()
			return err
		}
	}
	return nil
}

// Finalize divides the accumulated sums by the total committed weight
// and returns the aggregate in the reference entry order. Int64
// entries carry the first committed update's values, matching
// fl.FedAvg. The division runs on every core, one shard per worker,
// largest first; each element is float32(sum / total) exactly as a
// serial loop computes it, so the global is bit-identical at any
// GOMAXPROCS. Finalize does not consume the sums: the aggregator stays
// usable (further contributions keep folding into the same sums, and a
// Partial view still reads them); the tier that owns it starts its next
// round with NextRound, which empties these sums in place. Poisoned
// sums fail with ErrPoisoned, and NextRound replaces them; a total
// weight that is not finite and positive (weights summing past the
// float64 range) fails with ErrNoUpdates.
func (a *Aggregator) Finalize() (*model.StateDict, error) {
	a.mu.Lock()
	total := a.totalWeight
	updates := a.updates
	poisoned := a.poisoned
	a.mu.Unlock()
	if poisoned {
		return nil, ErrPoisoned
	}
	if updates == 0 || !(total > 0) || math.IsInf(total, 1) {
		return nil, ErrNoUpdates
	}

	// Each shard's worker allocates and fills only its own entries'
	// slots, so the fresh global is zeroed and written on every core.
	data := make([][]float32, len(a.names))
	a.eachShard(func(shard *aggShard) {
		shard.mu.Lock()
		for i, sum := range shard.sums {
			if sum == nil {
				continue
			}
			d := make([]float32, len(sum))
			for j, v := range sum {
				d[j] = float32(v / total)
			}
			data[i] = d
		}
		shard.mu.Unlock()
	})

	out := model.NewStateDict()
	for i, name := range a.names {
		e := model.Entry{Name: name, DType: a.dtypes[i]}
		if e.DType == model.Int64 {
			a.mu.Lock()
			e.Ints = append([]int64(nil), a.ints[i]...)
			a.mu.Unlock()
		} else {
			t, err := tensor.FromData(data[i], a.shapes[i]...)
			if err != nil {
				return nil, err
			}
			e.Tensor = t
		}
		if err := out.Add(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Contributor is one in-flight client contribution. Fold may be called
// concurrently (the streaming decoders emit entries from parallel
// decode workers); Commit and Abort are each called once, after every
// Fold has returned. Of a lent entry it holds the redo handle — the
// compressed section the decoder kept anyway — never the tensor.
type Contributor struct {
	a       *Aggregator
	weight  float64
	commits int // client-level updates this contribution carries (1; a regional partial carries its region's count)

	mu     sync.Mutex
	seen   []bool
	folded []foldedEntry
	intsAt map[int][]int64
	done   bool

	// round/async hooks, set by the owning scheduler.
	onCommit func() error
	onAbort  func(DropReason)
}

// foldedEntry records an applied fold for Abort's undo. A tensor fold
// keeps what reproduces the values it added — a lent entry's handle, or
// the owned tensor as its own redo source — so there is one undo path
// and no copy. A partial fold records the raw float64 sums instead
// (added without weight scaling, so undo subtracts them verbatim).
type foldedEntry struct {
	idx  int
	redo model.Redoer
	raw  []float64
}

// ownedTensor makes a tensor the caller keeps valid its own redo source.
type ownedTensor tensor.Tensor

func (t *ownedTensor) Redo(use func(data []float32) error) error {
	return use((*tensor.Tensor)(t).Data())
}

// Weight returns the contribution's aggregation weight.
func (c *Contributor) Weight() float64 { return c.weight }

// Fold applies one decoded entry: the entry's elements are scaled by
// the contribution weight and added into the owning shard's sums
// immediately, so aggregation work overlaps reception. A lent tensor
// (e.Redo set) is not referenced once Fold returns: for a potential
// Abort it keeps e.Redo, and only of an owned entry the tensor itself —
// until the contribution settles, so the caller must not overwrite an
// owned tensor before Commit or Abort has returned.
func (c *Contributor) Fold(e model.Entry) error {
	idx, ok := c.a.index[e.Name]
	if !ok {
		return fmt.Errorf("orchestrator: update entry %q not in reference model", e.Name)
	}
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return errors.New("orchestrator: fold on a closed contribution")
	}
	if c.seen[idx] {
		c.mu.Unlock()
		return fmt.Errorf("orchestrator: duplicate update entry %q", e.Name)
	}
	c.seen[idx] = true
	c.mu.Unlock()

	// A validation failure below must roll seen back, or the entry
	// would be poisoned: a corrected retry would read as a duplicate
	// and Commit's completeness check would pass with the entry's data
	// never folded.
	unsee := func() {
		c.mu.Lock()
		c.seen[idx] = false
		c.mu.Unlock()
	}

	if c.a.dtypes[idx] == model.Int64 {
		if e.DType != model.Int64 || len(e.Ints) != c.a.nInts[idx] {
			unsee()
			return fmt.Errorf("orchestrator: update entry %q incompatible", e.Name)
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
	if e.DType != model.Float32 || e.Tensor == nil || e.Tensor.NumElements() != len(sum) {
		shard.mu.Unlock()
		unsee()
		return fmt.Errorf("orchestrator: update entry %q incompatible", e.Name)
	}
	w := c.weight
	// float64(...) rounds the product on its own, so no architecture
	// fuses it into the add: a withdraw subtracts exactly what was added.
	for j, v := range e.Tensor.Data() {
		sum[j] += float64(w * float64(v))
	}
	shard.mu.Unlock()
	obsFolds.Inc()
	obsFoldElements.Add(int64(len(sum)))

	redo := e.Redo
	if redo == nil {
		redo = (*ownedTensor)(e.Tensor)
	}
	c.mu.Lock()
	c.folded = append(c.folded, foldedEntry{idx: idx, redo: redo})
	c.mu.Unlock()
	return nil
}

// Commit seals the contribution: it verifies the update covered every
// reference entry, adds the weight to the aggregate total, and
// releases the redo handles. A contribution that cannot commit
// must be Aborted, or its partial folds would linger in the sums.
func (c *Contributor) Commit() error {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return errors.New("orchestrator: commit on a closed contribution")
	}
	for idx, ok := range c.seen {
		if !ok {
			c.mu.Unlock()
			c.Abort()
			return fmt.Errorf("orchestrator: incomplete update: missing entry %q", c.a.names[idx])
		}
	}
	c.done = true
	intsAt := c.intsAt
	c.folded = nil
	c.mu.Unlock()

	a := c.a
	a.mu.Lock()
	a.totalWeight += c.weight
	first := a.updates == 0
	a.updates += c.commits
	a.inflight--
	if first {
		for idx, ints := range intsAt {
			a.ints[idx] = append([]int64(nil), ints...)
		}
	}
	a.mu.Unlock()
	if c.onCommit != nil {
		return c.onCommit()
	}
	return nil
}

// Abort withdraws the contribution, subtracting every fold already
// applied: each entry's redo source reproduces the float32 values that
// were added (a lent entry by decoding its compressed section again)
// and the same weight·float64(v) products come back out. The aggregate
// is restored to the other contributors' content up to float64
// rounding of the add/subtract round trip — negligible against the
// lossy bounds upstream. A redo that fails (not expected of bytes that
// decoded once) poisons the aggregator: Finalize refuses the sums and
// NextRound replaces them. Callers that know why the contribution died
// should use AbortReason so the coordinator's OnDrop hook sees the
// classification.
func (c *Contributor) Abort() { c.AbortReason(DropUnknown) }

// AbortReason is Abort with a typed withdrawal reason carried through
// to the owning round's or buffer's OnDrop notification.
func (c *Contributor) AbortReason(reason DropReason) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	folded := c.folded
	c.folded = nil
	c.mu.Unlock()

	poisoned := false
	for _, f := range folded {
		shard := &c.a.shards[c.a.shardOf[f.idx]]
		if f.raw != nil {
			shard.mu.Lock()
			sum := shard.sums[f.idx]
			for j, v := range f.raw {
				sum[j] -= v
			}
			shard.mu.Unlock()
			continue
		}
		// The shard is locked inside use: not while a replay decodes.
		err := f.redo.Redo(func(data []float32) error {
			shard.mu.Lock()
			defer shard.mu.Unlock()
			sum := shard.sums[f.idx]
			if len(data) != len(sum) {
				return errors.New("orchestrator: redo reproduced another element count")
			}
			w := c.weight
			for j, v := range data {
				sum[j] -= float64(w * float64(v))
			}
			return nil
		})
		if err != nil {
			poisoned = true
			continue
		}
		if _, owned := f.redo.(*ownedTensor); !owned {
			obsUndoReplayed.Inc()
		}
	}
	c.a.mu.Lock()
	c.a.inflight--
	if poisoned && !c.a.poisoned {
		c.a.poisoned = true
		obsPoisoned.Inc()
	}
	c.a.mu.Unlock()
	obsWithdrawals.Inc()
	if c.onAbort != nil {
		c.onAbort(reason)
	}
}
