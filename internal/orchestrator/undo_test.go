package orchestrator_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
	"fedsz/internal/tensor"
)

// lender stands in for a streaming decoder: it owns the true values of
// one update and lends each tensor out of scratch that it overwrites
// with NaN the moment the loan ends, so a consumer that keeps a lent
// tensor instead of its Redo handle folds or subtracts NaN.
type lender struct {
	truth   *model.StateDict
	scratch sync.Pool
	replays sync.Map // entry name → *int
}

type lentTensor struct {
	l    *lender
	name string
}

// Redo lends a fresh copy of the true values and poisons it afterwards.
func (h lentTensor) Redo(use func([]float32) error) error {
	e, _ := h.l.truth.Get(h.name)
	buf, _ := h.l.scratch.Get().(*[]float32)
	if buf == nil {
		buf = new([]float32)
	}
	data := append((*buf)[:0], e.Tensor.Data()...)
	defer func() {
		for i := range data {
			data[i] = float32(math.NaN())
		}
		*buf = data
		h.l.scratch.Put(buf)
	}()
	n, _ := h.l.replays.LoadOrStore(h.name, new(int))
	*n.(*int)++ // one fold or one undo per entry at a time
	return use(data)
}

// emit lends entry i of the update to fold the way a decode worker does.
func (l *lender) emit(i int, fold func(model.Entry) error) error {
	e := l.truth.At(i)
	if e.DType != model.Float32 {
		return fold(e)
	}
	return lentTensor{l, e.Name}.Redo(func(data []float32) error {
		t, err := tensor.FromData(data, len(data))
		if err != nil {
			return err
		}
		return fold(model.Entry{Name: e.Name, DType: model.Float32, Tensor: t, Redo: lentTensor{l, e.Name}})
	})
}

// exactDict is wideDict with values on a 2^-20 grid below 1: with
// integer weights every product and every partial sum the test can form
// is exact in float64, so the sums do not depend on the order concurrent
// folds and undos reach a shard in and can be compared bit for bit.
func exactDict(rng *rand.Rand) *model.StateDict {
	sd := wideDict(rng, 1)
	for i := 0; i < sd.Len(); i++ {
		if e := sd.At(i); e.DType == model.Float32 {
			for j, data := 0, e.Tensor.Data(); j < len(data); j++ {
				data[j] = float32(rng.Intn(1<<21)-1<<20) / (1 << 20)
			}
		}
	}
	return sd
}

// TestReplayUndoMatchesRetainedTensorUndo is the undo's equivalence
// property: whatever the shard count, with every contributor folding
// from several goroutines at once and a seeded random subset aborting
// after a random number of entries, the sums end bit-identical to the
// undo that kept each decoded tensor and subtracted it — computed here
// from the owned copies — although no Contributor saw a tensor that
// outlived its Fold call.
func TestReplayUndoMatchesRetainedTensorUndo(t *testing.T) {
	const contributors, emitters = 7, 3
	for _, shards := range []int{1, 4, 16} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ref := exactDict(rng)
				agg := orchestrator.NewAggregator(ref, shards)
				want := orchestrator.NewAggregator(ref, shards)

				var wg sync.WaitGroup
				replayed, before := 0, counter("fedsz_agg_undo_replayed_entries_total")
				for c := 0; c < contributors; c++ {
					l := &lender{truth: exactDict(rng)}
					weight := float64(1 + rng.Intn(500))
					order := rng.Perm(ref.Len())
					folds := ref.Len() // commit
					if rng.Intn(2) == 0 {
						folds = rng.Intn(ref.Len() + 1) // abort after this many
					}

					// The parent's undo, from owned copies: fold the same
					// entries, then subtract the tensors it would have kept.
					owned, err := want.Contributor(weight)
					if err != nil {
						t.Fatal(err)
					}
					for _, i := range order[:folds] {
						if err := owned.Fold(l.truth.At(i)); err != nil {
							t.Fatal(err)
						}
						if folds < ref.Len() && l.truth.At(i).DType == model.Float32 {
							replayed++
						}
					}
					if folds == ref.Len() {
						err = owned.Commit()
					} else {
						owned.Abort()
					}
					if err != nil {
						t.Fatal(err)
					}

					ct, err := agg.Contributor(weight)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						var emit sync.WaitGroup
						for g := 0; g < emitters; g++ {
							emit.Add(1)
							go func(g int) {
								defer emit.Done()
								for k := g; k < folds; k += emitters {
									if err := l.emit(order[k], ct.Fold); err != nil {
										t.Error(err)
									}
								}
							}(g)
						}
						emit.Wait()
						if folds < ref.Len() {
							ct.Abort()
						} else if err := ct.Commit(); err != nil {
							t.Error(err)
						}
						// Every lent tensor was used exactly once per fold and
						// once more per undo.
						for k, i := range order {
							e := l.truth.At(i)
							if e.DType != model.Float32 {
								continue
							}
							uses := 0
							if n, ok := l.replays.Load(e.Name); ok {
								uses = *n.(*int)
							}
							wantUses := 0
							if k < folds {
								wantUses = 1
								if folds < ref.Len() {
									wantUses = 2
								}
							}
							if uses != wantUses {
								t.Errorf("%q decoded %d times, want %d", e.Name, uses, wantUses)
							}
						}
					}()
				}
				wg.Wait()
				if got := counter("fedsz_agg_undo_replayed_entries_total") - before; got != int64(replayed) {
					t.Errorf("undo_replayed_entries_total rose by %d, want the %d lent entries undone here", got, replayed)
				}

				got, wantBits := sumBits(agg), sumBits(want)
				for i := range wantBits {
					if got[i] != wantBits[i] {
						t.Fatalf("sum word %d: %#x after replay undo, %#x after retained-tensor undo", i, got[i], wantBits[i])
					}
				}
				if agg.Inflight() != 0 {
					t.Fatalf("%d contributors still in flight", agg.Inflight())
				}
			})
		}
	}
}

func counter(name string) int64 { return obs.Default.Counter(name, "").Value() }

type brokenRedo struct{ short bool }

func (b brokenRedo) Redo(use func([]float32) error) error {
	if b.short {
		return use(make([]float32, 1))
	}
	return errors.New("section no longer decodes")
}

// TestFailedUndoPoisonsAggregator: when an aborted fold cannot be
// reproduced — the redo fails, or yields another element count — the
// sums are not silently kept: the aggregator counts itself poisoned,
// Finalize refuses, a forwarded Partial reads as an empty region, and
// NextRound hands the tier different sums.
func TestFailedUndoPoisonsAggregator(t *testing.T) {
	for _, short := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		ref := wideDict(rng, 1)
		agg := orchestrator.NewAggregator(ref, 4)
		if err := agg.FoldStateDict(wideDict(rng, 1), 10); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.Finalize(); err != nil {
			t.Fatal(err)
		}

		ct, err := agg.Contributor(5)
		if err != nil {
			t.Fatal(err)
		}
		e := wideDict(rng, 1).At(0)
		e.Redo = brokenRedo{short: short}
		if err := ct.Fold(e); err != nil {
			t.Fatal(err)
		}
		poisoned, withdrawn := counter("fedsz_agg_poisoned_total"), counter("fedsz_agg_withdrawals_total")
		ct.Abort()
		if got := counter("fedsz_agg_poisoned_total") - poisoned; got != 1 {
			t.Fatalf("short=%v: poisoned_total rose by %d, want 1", short, got)
		}
		if got := counter("fedsz_agg_withdrawals_total") - withdrawn; got != 1 {
			t.Fatalf("short=%v: withdrawals_total rose by %d, want 1", short, got)
		}
		if _, err := agg.Finalize(); !errors.Is(err, orchestrator.ErrPoisoned) {
			t.Fatalf("short=%v: Finalize of poisoned sums: %v, want ErrPoisoned", short, err)
		}
		if p := agg.Partial(); p.Updates != 0 || p.TotalWeight != 0 {
			t.Fatalf("short=%v: poisoned Partial claims %d updates, weight %v", short, p.Updates, p.TotalWeight)
		}
		if agg.Inflight() != 0 {
			t.Fatalf("short=%v: the aborted contributor is still in flight", short)
		}
		next := agg.NextRound(ref, 4)
		if next == agg {
			t.Fatalf("short=%v: NextRound reused poisoned sums", short)
		}
		if err := next.FoldStateDict(wideDict(rng, 1), 10); err != nil {
			t.Fatal(err)
		}
		if _, err := next.Finalize(); err != nil {
			t.Fatalf("short=%v: the replacement aggregator: %v", short, err)
		}
	}
}
