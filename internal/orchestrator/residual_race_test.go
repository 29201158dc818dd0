package orchestrator_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
	"fedsz/internal/tensor"
)

// lossyDict builds an update dict whose weight tensor is large enough
// for the lossy path, so per-client encodes do real work while the
// withdrawals race them.
func lossyDict(rng *rand.Rand, scale float32) *model.StateDict {
	sd := model.NewStateDict()
	data := make([]float32, 4096)
	for i := range data {
		data[i] = (rng.Float32()*2 - 1) * scale
	}
	tt, err := tensor.FromData(data, 64, 64)
	if err != nil {
		panic(err)
	}
	if err := sd.Add(model.Entry{Name: "fc.weight", DType: model.Float32, Tensor: tt}); err != nil {
		panic(err)
	}
	if err := sd.Add(model.Entry{Name: "steps", DType: model.Int64, Ints: []int64{1}}); err != nil {
		panic(err)
	}
	return sd
}

// TestResidualWithdrawOnDropRace is the concurrency contract test for
// OnDrop: many clients encode their updates while the orchestrator's
// withdrawal paths — Leave, contributor Abort and AbortReason — fire
// concurrently, each invoking OnDrop. Run under -race. After every
// round OnDrop must have seen each withdrawal exactly once with its
// reason and no submitter at all, and the commit must count only the
// submitters.
func TestResidualWithdrawOnDropRace(t *testing.T) {
	const clients = 9
	rng := rand.New(rand.NewSource(41))
	initial := lossyDict(rng, 1)

	var dropMu sync.Mutex
	drops := map[string][]orchestrator.DropReason{}
	coord, err := orchestrator.NewCoordinator(orchestrator.Config{
		Seed: 7,
		OnDrop: func(id string, reason orchestrator.DropReason) {
			dropMu.Lock()
			drops[id] = append(drops[id], reason)
			dropMu.Unlock()
		},
	}, initial)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		if err := coord.Join(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Per-round updates, generated up front so goroutines share no RNG.
	const rounds = 3
	updates := make([]*model.StateDict, rounds)
	for r := range updates {
		updates[r] = lossyDict(rng, 0.1)
	}

	for round := 0; round < rounds; round++ {
		r, err := coord.StartRound()
		if err != nil {
			t.Fatal(err)
		}
		parts := r.Participants()
		if len(parts) != clients {
			t.Fatalf("round %d sampled %d participants, want %d", round, len(parts), clients)
		}

		var mu sync.Mutex
		var keepers, withdrawn []string
		wantReason := map[string]orchestrator.DropReason{}
		clear(drops)
		var wg sync.WaitGroup
		for i, id := range parts {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				// Every participant encodes its update first — the work
				// the withdrawal paths race with.
				p, err := core.NewPipeline(core.Config{
					Lossy: "topk",
					Bound: lossy.RelBound(1e-2),
				})
				if err != nil {
					t.Error(err)
					return
				}
				buf, _, err := p.Compress(updates[round])
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 4 {
				case 0: // commit path: never withdrawn
					sd, err := core.Decompress(buf)
					if err != nil {
						t.Error(err)
						return
					}
					if err := r.Submit(id, sd, 1); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					keepers = append(keepers, id)
					mu.Unlock()
				case 1: // departure mid-round
					coord.Leave(id)
					mu.Lock()
					withdrawn = append(withdrawn, id)
					wantReason[id] = orchestrator.DropLeave
					mu.Unlock()
				case 2: // in-flight abort (straggler cut / dead uplink)
					ct, err := r.Contributor(id, 1)
					if err != nil {
						t.Error(err)
						return
					}
					ct.Abort()
					mu.Lock()
					withdrawn = append(withdrawn, id)
					wantReason[id] = orchestrator.DropUnknown
					mu.Unlock()
				case 3: // corrupt uplink: the abort carries its reason
					ct, err := r.Contributor(id, 1)
					if err != nil {
						t.Error(err)
						return
					}
					ct.AbortReason(orchestrator.DropCorrupt)
					mu.Lock()
					withdrawn = append(withdrawn, id)
					wantReason[id] = orchestrator.DropCorrupt
					mu.Unlock()
				}
			}(i, id)
		}
		wg.Wait()
		_, st, err := r.Commit()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.Committed != len(keepers) || st.Dropped != len(withdrawn) || st.Version != round+1 {
			t.Fatalf("round %d: stats %+v, want committed %d dropped %d version %d",
				round, st, len(keepers), len(withdrawn), round+1)
		}
		if v, _ := coord.Global(); v != round+1 {
			t.Fatalf("round %d: global version %d, want %d", round, v, round+1)
		}
		if len(drops) != len(wantReason) {
			t.Fatalf("round %d: OnDrop saw %d clients, want %d", round, len(drops), len(wantReason))
		}
		for id, reason := range wantReason {
			if got := drops[id]; len(got) != 1 || got[0] != reason {
				t.Fatalf("round %d: OnDrop for %q saw %v, want [%v]", round, id, got, reason)
			}
		}

		// Re-register departed clients (aborted ones never left).
		for _, id := range withdrawn {
			_ = coord.Join(id)
		}
	}
}
