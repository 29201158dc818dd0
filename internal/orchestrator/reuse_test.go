package orchestrator_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// sumPointers returns the address of every Float32 entry's sums — the
// identity of the aggregator's model-sized storage.
func sumPointers(a *orchestrator.Aggregator) []*float64 {
	var ptrs []*float64
	for _, e := range a.Partial().Entries {
		if e.DType == model.Float32 && len(e.Sums) > 0 {
			ptrs = append(ptrs, &e.Sums[0])
		}
	}
	return ptrs
}

// sumBits snapshots every element of the aggregate's unnormalized state.
func sumBits(a *orchestrator.Aggregator) []uint64 {
	p := a.Partial()
	bits := []uint64{math.Float64bits(p.TotalWeight), uint64(p.Updates)}
	for _, e := range p.Entries {
		for _, v := range e.Sums {
			bits = append(bits, math.Float64bits(v))
		}
		for _, v := range e.Ints {
			bits = append(bits, uint64(v))
		}
	}
	return bits
}

// reuseFixture is a sync coordinator with three joined clients and a
// supply of per-round updates.
type reuseFixture struct {
	coord *orchestrator.Coordinator
	ids   []string
	rng   *rand.Rand
}

func newReuseFixture(t *testing.T, seed int64) *reuseFixture {
	t.Helper()
	rng := stats.NewRNG(seed)
	coord, err := orchestrator.NewCoordinator(orchestrator.Config{Shards: 3}, randomDict(rng, 1))
	if err != nil {
		t.Fatal(err)
	}
	f := &reuseFixture{coord: coord, ids: []string{"a", "b", "c"}, rng: rng}
	for _, id := range f.ids {
		if err := coord.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *reuseFixture) start(t *testing.T) *orchestrator.Round {
	t.Helper()
	r, err := f.coord.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runClean submits a fresh update from every client in id order, commits
// and checks the global against sequential FedAvg of exactly those
// updates, bit for bit.
func (f *reuseFixture) runClean(t *testing.T, r *orchestrator.Round, between func()) {
	t.Helper()
	updates := make([]*model.StateDict, len(f.ids))
	counts := make([]int, len(f.ids))
	for i, id := range f.ids {
		updates[i], counts[i] = randomDict(f.rng, 1), 10+f.rng.Intn(90)
		if err := r.Submit(id, updates[i], float64(counts[i])); err != nil {
			t.Fatal(err)
		}
		if i == 0 && between != nil {
			between()
		}
	}
	got, st, err := r.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.Folded != len(f.ids) {
		t.Fatalf("round folded %d updates, want %d", st.Folded, len(f.ids))
	}
	want, err := fl.FedAvg(updates, counts)
	if err != nil {
		t.Fatal(err)
	}
	dictsBitIdentical(t, want, got)
}

// TestSumsReusedAcrossCleanRounds: a tier whose rounds settle every
// contributor folds all of them into the same backing arrays, and what
// one round left in them (sums, weight, count, the adopted Int64
// values) never shows in the next — after a commit, after Round.Cancel
// and after a round that lost everyone to ErrNoUpdates.
func TestSumsReusedAcrossCleanRounds(t *testing.T) {
	f := newReuseFixture(t, 101)
	r := f.start(t)
	agg, ptrs := r.Aggregator(), sumPointers(r.Aggregator())
	f.runClean(t, r, nil)

	same := func(what string, r *orchestrator.Round) {
		t.Helper()
		if r.Aggregator() != agg {
			t.Fatalf("%s: the round got a different aggregator", what)
		}
		got := sumPointers(r.Aggregator())
		for i := range ptrs {
			if got[i] != ptrs[i] {
				t.Fatalf("%s: sums of tensor %d were reallocated", what, i)
			}
		}
		for i, b := range sumBits(r.Aggregator()) {
			if b != 0 {
				t.Fatalf("%s: element %d of the new round's aggregate starts at %#x", what, i, b)
			}
		}
	}

	r = f.start(t)
	same("after a commit", r)
	f.runClean(t, r, nil)

	// A cancelled round with settled contributors: one committed, one aborted.
	r = f.start(t)
	if err := r.Submit("a", randomDict(f.rng, 1), 5); err != nil {
		t.Fatal(err)
	}
	ct, err := r.Contributor("b", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Fold(randomDict(f.rng, 1).At(0)); err != nil {
		t.Fatal(err)
	}
	ct.Abort()
	r.Cancel()
	r = f.start(t)
	same("after Cancel", r)
	f.runClean(t, r, nil)

	// A round that lost everyone: the aborted folds leave add/subtract
	// residue in the sums, and Commit fails with ErrNoUpdates.
	r = f.start(t)
	for _, id := range f.ids {
		ct, err := r.Contributor(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		u := randomDict(f.rng, 1e3)
		for i := 0; i < 3; i++ {
			if err := ct.Fold(u.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		ct.Abort()
	}
	if _, _, err := r.Commit(); !errors.Is(err, orchestrator.ErrNoUpdates) {
		t.Fatalf("Commit = %v, want ErrNoUpdates", err)
	}
	r = f.start(t)
	same("after ErrNoUpdates", r)
	f.runClean(t, r, nil)
}

// TestSumsNeverReusedUnderLiveContributor: a driver that starts the next
// round while a contributor of the last one is still open broke the
// quiescence contract. The new round must get fresh sums, and nothing
// the straggler does afterwards — fold the rest of its update, commit,
// abort (whose undo subtracts) — may change one element of them.
func TestSumsNeverReusedUnderLiveContributor(t *testing.T) {
	for _, closeBy := range []string{"commit", "cancel"} {
		for _, settle := range []string{"commit", "abort"} {
			t.Run(closeBy+"/"+settle, func(t *testing.T) {
				f := newReuseFixture(t, 103)
				f.runClean(t, f.start(t), nil) // the aggregator has been through a round

				old := f.start(t)
				straggler := randomDict(f.rng, 1e3)
				ct, err := old.Contributor("c", 1e6)
				if err != nil {
					t.Fatal(err)
				}
				half := straggler.Len() / 2
				for i := 0; i < half; i++ {
					if err := ct.Fold(straggler.At(i)); err != nil {
						t.Fatal(err)
					}
				}
				if err := old.Submit("a", randomDict(f.rng, 1), 5); err != nil {
					t.Fatal(err)
				}
				if closeBy == "commit" {
					if _, _, err := old.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					old.Cancel()
				}

				next := f.start(t)
				if next.Aggregator() == old.Aggregator() {
					t.Fatal("the new round shares an aggregator with a live contributor")
				}
				oldPtrs := sumPointers(old.Aggregator())
				for i, p := range sumPointers(next.Aggregator()) {
					if p == oldPtrs[i] {
						t.Fatalf("the new round shares the sums of tensor %d with a live contributor", i)
					}
				}

				f.runClean(t, next, func() {
					before := sumBits(next.Aggregator())
					for i := half; i < straggler.Len(); i++ {
						if err := ct.Fold(straggler.At(i)); err != nil {
							t.Fatal(err)
						}
					}
					if settle == "commit" {
						if err := ct.Commit(); err == nil {
							t.Fatal("a straggler committed into a closed round")
						}
					} else {
						ct.Abort()
					}
					if !slices.Equal(before, sumBits(next.Aggregator())) {
						t.Fatal("the straggler changed the new round's aggregate")
					}
				})
			})
		}
	}
}

// wideDict is a reference model wide enough for 16 shards, with two
// Int64 entries whose values the caller varies per update.
func wideDict(rng *rand.Rand, ints int64) *model.StateDict {
	sd := model.NewStateDict()
	for i := 0; i < 24; i++ {
		data := make([]float32, 5+17*(i%5))
		for j := range data {
			data[j] = rng.Float32()*2 - 1
		}
		t, err := tensor.FromData(data, len(data))
		if err != nil {
			panic(err)
		}
		if err := sd.Add(model.Entry{Name: fmt.Sprintf("layer%d.weight", i), DType: model.Float32, Tensor: t}); err != nil {
			panic(err)
		}
		if i%12 == 5 {
			e := model.Entry{Name: fmt.Sprintf("bn%d.num_batches_tracked", i), DType: model.Int64, Ints: []int64{ints, ints + int64(i)}}
			if err := sd.Add(e); err != nil {
				panic(err)
			}
		}
	}
	return sd
}

// TestReusedAggregatorEqualsFresh is the arithmetic guarantee behind the
// reuse: K rounds through one aggregator that is emptied in place and K
// rounds through a fresh aggregator each produce the same bits — every
// round's Finalize and every element of its Partial — whatever the shard
// count and whatever mix of client folds, regional partial folds, an
// aborted contributor and per-round Int64 values the round saw.
func TestReusedAggregatorEqualsFresh(t *testing.T) {
	const rounds = 6
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := stats.NewRNG(int64(200 + shards))
			ref := wideDict(rng, 0)
			var reused *orchestrator.Aggregator
			abortAt := rng.Intn(rounds)
			for round := 0; round < rounds; round++ {
				reused = reused.NextRound(ref, shards)
				fresh := orchestrator.NewAggregator(ref, shards)
				if round > 0 && &reused.Partial().Entries[0].Sums[0] == &fresh.Partial().Entries[0].Sums[0] {
					t.Fatal("the two arms share storage")
				}

				// The round's script, replayed on both arms.
				clients := make([]*model.StateDict, 2+rng.Intn(3))
				weights := make([]float64, len(clients))
				for i := range clients {
					clients[i], weights[i] = wideDict(rng, int64(1000*round+i)), float64(1+rng.Intn(500))
				}
				region := orchestrator.NewAggregator(ref, 1+rng.Intn(4))
				for i := 0; i < 2; i++ {
					if err := region.FoldStateDict(wideDict(rng, int64(-round)), float64(1+rng.Intn(500))); err != nil {
						t.Fatal(err)
					}
				}
				doomed := wideDict(rng, 77)
				partialFirst := rng.Intn(2) == 0

				var outs [2]*model.StateDict
				for arm, agg := range []*orchestrator.Aggregator{reused, fresh} {
					foldRegion := func() {
						p := region.Partial()
						ct, err := agg.PartialContributor(p.TotalWeight, p.Updates)
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range p.Entries {
							if err := ct.FoldPartial(e); err != nil {
								t.Fatal(err)
							}
						}
						if err := ct.Commit(); err != nil {
							t.Fatal(err)
						}
					}
					if partialFirst {
						foldRegion()
					}
					for i, u := range clients {
						if i == 1 && round == abortAt {
							ct, err := agg.Contributor(1e4)
							if err != nil {
								t.Fatal(err)
							}
							for j := 0; j < doomed.Len()/2; j++ {
								if err := ct.Fold(doomed.At(j)); err != nil {
									t.Fatal(err)
								}
							}
							ct.Abort()
						}
						if err := agg.FoldStateDict(u, weights[i]); err != nil {
							t.Fatal(err)
						}
					}
					if !partialFirst {
						foldRegion()
					}
					out, err := agg.Finalize()
					if err != nil {
						t.Fatal(err)
					}
					outs[arm] = out
				}
				dictsBitIdentical(t, outs[1], outs[0])
				if !slices.Equal(sumBits(fresh), sumBits(reused)) {
					t.Fatalf("round %d: the reused aggregator's Partial differs from a fresh one's", round)
				}
				if want := len(clients) + 2; reused.Updates() != want {
					t.Fatalf("round %d: %d updates, want %d", round, reused.Updates(), want)
				}
			}
		})
	}
}

// TestNextRoundRebuildsOnShapeChange: an upstream that changes the model
// gets a new aggregator, not folds into sums of the wrong shape.
func TestNextRoundRebuildsOnShapeChange(t *testing.T) {
	rng := stats.NewRNG(9)
	ref := randomDict(rng, 1)
	agg := orchestrator.NewAggregator(ref, 2)
	if got := agg.NextRound(ref.Clone(), 2); got != agg {
		t.Fatal("an equal-shaped reference did not reuse the aggregator")
	}
	for name, other := range map[string]*model.StateDict{
		"entry count": wideDict(rng, 0),
		"renamed":     mutated(ref, 1, func(e *model.Entry) { e.Name = "conv1.b" }),
		"reshaped": mutated(ref, 0, func(e *model.Entry) {
			var err error
			if e.Tensor, err = e.Tensor.Reshape(8, 9); err != nil {
				t.Fatal(err)
			}
		}),
		"int64 length": mutated(ref, 4, func(e *model.Entry) { e.Ints = make([]int64, 2) }),
	} {
		if got := agg.NextRound(other, 2); got == agg {
			t.Fatalf("%s: the aggregator was reused for a different model", name)
		}
	}
}

// mutated copies sd with mutate applied to entry i.
func mutated(sd *model.StateDict, i int, mutate func(e *model.Entry)) *model.StateDict {
	out := model.NewStateDict()
	for j, e := range sd.Entries() {
		if j == i {
			mutate(&e)
		}
		if err := out.Add(e); err != nil {
			panic(err)
		}
	}
	return out
}
