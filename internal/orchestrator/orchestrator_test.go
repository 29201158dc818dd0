package orchestrator_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
	"fedsz/internal/tensor"
)

// randomDict builds a state dict with a few float tensors of varying
// size plus an Int64 metadata entry, mirroring real model structure.
func randomDict(rng *rand.Rand, scale float32) *model.StateDict {
	sd := model.NewStateDict()
	shapes := map[string][]int{
		"conv1.weight": {8, 3, 3},
		"conv1.bias":   {8},
		"fc.weight":    {16, 13},
		"fc.bias":      {16},
	}
	for _, name := range []string{"conv1.weight", "conv1.bias", "fc.weight", "fc.bias"} {
		shape := shapes[name]
		n := 1
		for _, d := range shape {
			n *= d
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = (rng.Float32()*2 - 1) * scale
		}
		t, err := tensor.FromData(data, shape...)
		if err != nil {
			panic(err)
		}
		if err := sd.Add(model.Entry{Name: name, DType: model.Float32, Tensor: t}); err != nil {
			panic(err)
		}
	}
	if err := sd.Add(model.Entry{Name: "bn.num_batches_tracked", DType: model.Int64, Ints: []int64{int64(rng.Intn(100))}}); err != nil {
		panic(err)
	}
	return sd
}

func dictsBitIdentical(t *testing.T, a, b *model.StateDict) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("entry count %d != %d", a.Len(), b.Len())
	}
	for _, ea := range a.Entries() {
		eb, ok := b.Get(ea.Name)
		if !ok {
			t.Fatalf("missing entry %q", ea.Name)
		}
		if ea.DType != eb.DType {
			t.Fatalf("entry %q dtype mismatch", ea.Name)
		}
		if ea.DType == model.Int64 {
			for i := range ea.Ints {
				if ea.Ints[i] != eb.Ints[i] {
					t.Fatalf("entry %q int %d: %d != %d", ea.Name, i, ea.Ints[i], eb.Ints[i])
				}
			}
			continue
		}
		da, db := ea.Tensor.Data(), eb.Tensor.Data()
		for i := range da {
			if math.Float32bits(da[i]) != math.Float32bits(db[i]) {
				t.Fatalf("entry %q element %d: %x != %x (%v vs %v)",
					ea.Name, i, math.Float32bits(da[i]), math.Float32bits(db[i]), da[i], db[i])
			}
		}
	}
}

func dictsClose(t *testing.T, a, b *model.StateDict, tol float64) {
	t.Helper()
	for _, ea := range a.Entries() {
		if ea.DType != model.Float32 {
			continue
		}
		eb, ok := b.Get(ea.Name)
		if !ok {
			t.Fatalf("missing entry %q", ea.Name)
		}
		da, db := ea.Tensor.Data(), eb.Tensor.Data()
		for i := range da {
			if diff := math.Abs(float64(da[i]) - float64(db[i])); diff > tol {
				t.Fatalf("entry %q element %d: |%v-%v| = %g > %g", ea.Name, i, da[i], db[i], diff, tol)
			}
		}
	}
}

// TestAggregatorMatchesFedAvg is the acceptance equivalence test: the
// streaming sharded accumulator must produce byte-identical global
// weights to the sequential FedAvg reference on the same updates, in
// the same order, at every shard count.
func TestAggregatorMatchesFedAvg(t *testing.T) {
	rng := stats.NewRNG(7)
	ref := randomDict(rng, 1)
	updates := make([]*model.StateDict, 6)
	counts := make([]int, len(updates))
	for i := range updates {
		updates[i] = randomDict(rng, 1)
		counts[i] = 10 + rng.Intn(200)
	}
	want, err := fl.FedAvg(updates, counts)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3, 5, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			agg := orchestrator.NewAggregator(ref, shards)
			for i, u := range updates {
				if err := agg.FoldStateDict(u, float64(counts[i])); err != nil {
					t.Fatal(err)
				}
			}
			got, err := agg.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			dictsBitIdentical(t, want, got)
		})
	}
}

// TestAggregatorAbortWithdraws folds three updates, aborts the middle
// one halfway through, and checks the result matches FedAvg over the
// surviving two (the add/subtract undo only perturbs float64 last
// bits, far below the tolerance).
func TestAggregatorAbortWithdraws(t *testing.T) {
	rng := stats.NewRNG(11)
	ref := randomDict(rng, 1)
	u1, u2, u3 := randomDict(rng, 1), randomDict(rng, 1), randomDict(rng, 1)

	agg := orchestrator.NewAggregator(ref, 4)
	if err := agg.FoldStateDict(u1, 5); err != nil {
		t.Fatal(err)
	}
	ct, err := agg.Contributor(7)
	if err != nil {
		t.Fatal(err)
	}
	// Fold only part of u2, then die mid-stream.
	entries := u2.Entries()
	for _, e := range entries[:2] {
		if err := ct.Fold(e); err != nil {
			t.Fatal(err)
		}
	}
	ct.Abort()
	if err := agg.FoldStateDict(u3, 9); err != nil {
		t.Fatal(err)
	}

	got, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fl.FedAvg([]*model.StateDict{u1, u3}, []int{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	dictsClose(t, want, got, 1e-6)
	if agg.Updates() != 2 {
		t.Fatalf("updates = %d, want 2", agg.Updates())
	}
	if agg.Inflight() != 0 {
		t.Fatalf("inflight = %d, want 0", agg.Inflight())
	}
}

func TestAggregatorRejectsIncompleteAndIncompatible(t *testing.T) {
	rng := stats.NewRNG(13)
	ref := randomDict(rng, 1)
	agg := orchestrator.NewAggregator(ref, 2)

	// Incomplete update: commit must fail and leave nothing behind.
	ct, err := agg.Contributor(1)
	if err != nil {
		t.Fatal(err)
	}
	u := randomDict(rng, 1)
	if err := ct.Fold(u.Entries()[0]); err != nil {
		t.Fatal(err)
	}
	if err := ct.Commit(); err == nil {
		t.Fatal("commit of incomplete update succeeded")
	}
	if agg.Updates() != 0 || agg.Inflight() != 0 {
		t.Fatalf("updates=%d inflight=%d after failed commit", agg.Updates(), agg.Inflight())
	}
	if _, err := agg.Finalize(); err != orchestrator.ErrNoUpdates {
		t.Fatalf("finalize = %v, want orchestrator.ErrNoUpdates", err)
	}

	// Unknown entry name.
	ct2, _ := agg.Contributor(1)
	bad, _ := tensor.FromData([]float32{1}, 1)
	if err := ct2.Fold(model.Entry{Name: "nope", DType: model.Float32, Tensor: bad}); err == nil {
		t.Fatal("fold of unknown entry succeeded")
	}
	ct2.Abort()

	// Shape mismatch must not poison the entry: a corrected retry on
	// the same contribution succeeds.
	ct3, _ := agg.Contributor(1)
	if err := ct3.Fold(model.Entry{Name: "fc.bias", DType: model.Float32, Tensor: bad}); err == nil {
		t.Fatal("fold of mis-shaped entry succeeded")
	}
	good, _ := u.Get("fc.bias")
	if err := ct3.Fold(good); err != nil {
		t.Fatalf("corrected retry after failed fold: %v", err)
	}
	ct3.Abort()

	// Duplicate entry within one contribution.
	ct4, _ := agg.Contributor(1)
	if err := ct4.Fold(u.Entries()[0]); err != nil {
		t.Fatal(err)
	}
	if err := ct4.Fold(u.Entries()[0]); err == nil {
		t.Fatal("duplicate fold succeeded")
	}
	ct4.Abort()

	// Zero/negative weight.
	if _, err := agg.Contributor(0); err == nil {
		t.Fatal("zero-weight contributor succeeded")
	}
}

// TestStragglerDeadlineProperty is the randomized straggler property:
// for random arrival schedules and deadlines, the committed model
// equals the FedAvg of exactly the on-time subset (in arrival order),
// byte for byte, and the round accounts the drops.
func TestStragglerDeadlineProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := stats.NewRNG(int64(1000 + trial))
		ref := randomDict(rng, 1)
		n := 3 + rng.Intn(10)

		coord, err := orchestrator.NewCoordinator(orchestrator.Config{
			RoundDeadline: time.Duration(1+rng.Intn(1000)) * time.Millisecond,
			Shards:        1 + rng.Intn(4),
			Seed:          int64(trial),
		}, ref)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("c%02d", i)
			if err := coord.Join(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
		round, err := coord.StartRound()
		if err != nil {
			t.Fatal(err)
		}

		// Random virtual arrival schedule for every participant.
		type arrival struct {
			id string
			at time.Duration
			sd *model.StateDict
			w  int
		}
		arrivals := make([]arrival, 0, n)
		for _, id := range round.Participants() {
			arrivals = append(arrivals, arrival{
				id: id,
				at: time.Duration(rng.Intn(2000)) * time.Millisecond,
				sd: randomDict(rng, 1),
				w:  1 + rng.Intn(50),
			})
		}
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })

		// The driver folds on-time arrivals in order and drops the rest.
		var onTime []*model.StateDict
		var counts []int
		for _, a := range arrivals {
			if a.at <= round.Deadline() {
				if err := round.Submit(a.id, a.sd, float64(a.w)); err != nil {
					t.Fatal(err)
				}
				onTime = append(onTime, a.sd)
				counts = append(counts, a.w)
			} else {
				round.Drop(a.id, orchestrator.DropDeadline)
			}
		}

		got, stats_, err := round.Commit()
		if len(onTime) == 0 {
			if err != orchestrator.ErrNoUpdates {
				t.Fatalf("trial %d: empty round commit = %v, want orchestrator.ErrNoUpdates", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := fl.FedAvg(onTime, counts)
		if err != nil {
			t.Fatal(err)
		}
		dictsBitIdentical(t, want, got)
		if stats_.Committed != len(onTime) || stats_.Dropped != n-len(onTime) {
			t.Fatalf("trial %d: stats %+v, want committed %d dropped %d",
				trial, stats_, len(onTime), n-len(onTime))
		}
		if v, g := coord.Global(); v != 1 || g != got {
			t.Fatalf("trial %d: global not installed (version %d)", trial, v)
		}
	}
}

// TestConcurrentJoinLeaveSubmit hammers the coordinator under -race:
// clients join and leave while rounds sample, collect concurrent
// streaming contributions, and commit.
func TestConcurrentJoinLeaveSubmit(t *testing.T) {
	rng := stats.NewRNG(21)
	ref := randomDict(rng, 1)
	coord, err := orchestrator.NewCoordinator(orchestrator.Config{ClientsPerRound: 8, Shards: 4, Seed: 1}, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := coord.Join(fmt.Sprintf("stable%02d", i)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("churn%03d", i%50)
			if err := coord.Join(id); err == nil {
				coord.Leave(id)
			}
		}
	}()

	for r := 0; r < 20; r++ {
		round, err := coord.StartRound()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i, id := range round.Participants() {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				// Some participants die mid-stream, some submit.
				seed := int64(r*100 + i)
				u := randomDict(stats.NewRNG(seed), 1)
				ct, err := round.Contributor(id, float64(1+i))
				if err != nil {
					return // e.g. churned away — driver drops it
				}
				var inner sync.WaitGroup
				entries := u.Entries()
				abort := i%3 == 0
				for j, e := range entries {
					if abort && j == len(entries)/2 {
						break
					}
					inner.Add(1)
					go func(e model.Entry) {
						defer inner.Done()
						_ = ct.Fold(e)
					}(e)
				}
				inner.Wait()
				if abort {
					ct.Abort()
					round.Drop(id, orchestrator.DropDisconnect)
					return
				}
				if err := ct.Commit(); err != nil {
					t.Error(err)
				}
			}(i, id)
		}
		wg.Wait()
		if _, _, err := round.Commit(); err != nil && err != orchestrator.ErrNoUpdates {
			t.Fatal(err)
		}
	}
	close(stop)
	churn.Wait()
}

// TestSamplingAndOverProvision checks the sampler draws
// ceil(K·factor) distinct participants and Target stays K.
func TestSamplingAndOverProvision(t *testing.T) {
	rng := stats.NewRNG(51)
	ref := randomDict(rng, 1)
	coord, err := orchestrator.NewCoordinator(orchestrator.Config{
		ClientsPerRound: 10,
		OverProvision:   1.3,
		Seed:            9,
	}, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := coord.Join(fmt.Sprintf("c%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	round, err := coord.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	parts := round.Participants()
	if len(parts) != 13 {
		t.Fatalf("sampled %d, want ceil(10·1.3) = 13", len(parts))
	}
	if round.Target() != 10 {
		t.Fatalf("target %d, want 10", round.Target())
	}
	seen := map[string]bool{}
	for _, id := range parts {
		if seen[id] {
			t.Fatalf("duplicate participant %q", id)
		}
		seen[id] = true
	}
	// Second round while one is open must fail.
	if _, err := coord.StartRound(); err == nil {
		t.Fatal("second concurrent round opened")
	}
	round.Cancel()
	if _, err := coord.StartRound(); err != nil {
		t.Fatalf("round after cancel: %v", err)
	}
}
