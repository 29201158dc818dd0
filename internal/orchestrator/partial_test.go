package orchestrator_test

import (
	"fmt"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
)

// foldFlat folds updates sequentially into a fresh aggregator and
// finalizes — the flat single-tier reference.
func foldFlat(t *testing.T, ref *model.StateDict, shards int, updates []*model.StateDict, counts []int) *model.StateDict {
	t.Helper()
	agg := orchestrator.NewAggregator(ref, shards)
	for i, sd := range updates {
		if err := agg.FoldStateDict(sd, float64(counts[i])); err != nil {
			t.Fatalf("flat fold %d: %v", i, err)
		}
	}
	out, err := agg.Finalize()
	if err != nil {
		t.Fatalf("flat finalize: %v", err)
	}
	return out
}

// foldTwoTier partitions the updates into contiguous regions, folds
// each region through its own aggregator, snapshots the regional
// partials, and folds those into a core aggregator — the 2-tier path.
func foldTwoTier(t *testing.T, ref *model.StateDict, coreShards, edgeShards int, updates []*model.StateDict, counts []int, regionSizes []int) *model.StateDict {
	t.Helper()
	core := orchestrator.NewAggregator(ref, coreShards)
	lo := 0
	for r, n := range regionSizes {
		edge := orchestrator.NewAggregator(ref, edgeShards)
		for i := lo; i < lo+n; i++ {
			if err := edge.FoldStateDict(updates[i], float64(counts[i])); err != nil {
				t.Fatalf("region %d fold %d: %v", r, i, err)
			}
		}
		lo += n
		p := edge.Partial()
		ct, err := core.PartialContributor(p.TotalWeight, p.Updates)
		if err != nil {
			t.Fatalf("region %d contributor: %v", r, err)
		}
		for _, e := range p.Entries {
			if err := ct.FoldPartial(e); err != nil {
				t.Fatalf("region %d partial fold %q: %v", r, e.Name, err)
			}
		}
		if err := ct.Commit(); err != nil {
			t.Fatalf("region %d commit: %v", r, err)
		}
	}
	out, err := core.Finalize()
	if err != nil {
		t.Fatalf("two-tier finalize: %v", err)
	}
	return out
}

// TestPartialTwoTierMatchesFlat is the tentpole equivalence test:
// folding a population through regional edge aggregators and
// forwarding unnormalized partial sums must commit byte-identical
// global weights to the flat fold, across shard counts on both tiers
// and uneven region partitions (including single-client regions).
func TestPartialTwoTierMatchesFlat(t *testing.T) {
	rng := stats.NewRNG(11)
	ref := randomDict(rng, 1)
	const n = 12
	updates := make([]*model.StateDict, n)
	counts := make([]int, n)
	for i := range updates {
		updates[i] = randomDict(rng, 1)
		counts[i] = 10 + rng.Intn(200)
	}

	partitions := [][]int{
		{12},            // one region: partial ≡ whole population
		{6, 6},          // even split
		{1, 4, 7},       // uneven, with a single-client region
		{3, 3, 3, 3},    // many small regions
		{11, 1},         // trailing singleton
		{2, 2, 2, 2, 4}, // deeper fan-in
	}
	for _, coreShards := range []int{1, 4, 16} {
		for _, edgeShards := range []int{1, 4, 16} {
			flat := foldFlat(t, ref, coreShards, updates, counts)
			for _, part := range partitions {
				name := fmt.Sprintf("core%d_edge%d_%v", coreShards, edgeShards, part)
				tiered := foldTwoTier(t, ref, coreShards, edgeShards, updates, counts, part)
				t.Run(name, func(t *testing.T) { dictsBitIdentical(t, flat, tiered) })
			}
		}
	}
}

// TestPartialUpdateAccounting checks the client-level bookkeeping: a
// partial contribution commits its whole region's update count, so the
// core's Updates() reflects clients, not regions.
func TestPartialUpdateAccounting(t *testing.T) {
	rng := stats.NewRNG(13)
	ref := randomDict(rng, 1)
	edge := orchestrator.NewAggregator(ref, 4)
	for i := 0; i < 5; i++ {
		if err := edge.FoldStateDict(randomDict(rng, 1), float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	p := edge.Partial()
	if p.Updates != 5 {
		t.Fatalf("partial Updates = %d, want 5", p.Updates)
	}
	core := orchestrator.NewAggregator(ref, 4)
	ct, err := core.PartialContributor(p.TotalWeight, p.Updates)
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
	if got := core.Updates(); got != 5 {
		t.Fatalf("core Updates = %d, want 5 (client-level)", got)
	}
}

// TestPartialAbortWithdrawsRegion folds one region's partial and
// aborts it mid-stream: the core must end up with the other region's
// content only — a dying edge withdraws its whole region at once.
func TestPartialAbortWithdrawsRegion(t *testing.T) {
	rng := stats.NewRNG(17)
	ref := randomDict(rng, 1)
	survivors := make([]*model.StateDict, 3)
	counts := make([]int, 3)
	for i := range survivors {
		survivors[i] = randomDict(rng, 1)
		counts[i] = 20 + i
	}
	doomed := randomDict(rng, 1)

	want := foldFlat(t, ref, 4, survivors, counts)

	core := orchestrator.NewAggregator(ref, 4)
	// Surviving region commits.
	edge := orchestrator.NewAggregator(ref, 2)
	for i, sd := range survivors {
		if err := edge.FoldStateDict(sd, float64(counts[i])); err != nil {
			t.Fatal(err)
		}
	}
	p := edge.Partial()
	ct, err := core.PartialContributor(p.TotalWeight, p.Updates)
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

	// Doomed region folds some entries, then its edge dies.
	dedge := orchestrator.NewAggregator(ref, 2)
	if err := dedge.FoldStateDict(doomed, 50); err != nil {
		t.Fatal(err)
	}
	dp := dedge.Partial()
	dct, err := core.PartialContributor(dp.TotalWeight, dp.Updates)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dp.Entries[:len(dp.Entries)/2] {
		if err := dct.FoldPartial(e); err != nil {
			t.Fatal(err)
		}
	}
	dct.AbortReason(orchestrator.DropDisconnect)

	got, err := core.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	dictsBitIdentical(t, want, got)
	if core.Updates() != 3 {
		t.Fatalf("core Updates = %d after abort, want 3", core.Updates())
	}
}

// TestRoundMixedPartialAndDirect commits a coordinator round fed by
// one direct client and one regional partial: the committed global
// must equal the flat FedAvg over all underlying updates, Committed
// counts participants, and Folded counts client-level updates.
func TestRoundMixedPartialAndDirect(t *testing.T) {
	rng := stats.NewRNG(19)
	ref := randomDict(rng, 1)
	updates := make([]*model.StateDict, 4)
	counts := make([]int, 4)
	for i := range updates {
		updates[i] = randomDict(rng, 1)
		counts[i] = 30 + rng.Intn(50)
	}
	want := foldFlat(t, ref, 4, updates, counts)

	coord, err := orchestrator.NewCoordinator(orchestrator.Config{Shards: 4}, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"client-0", "edge-0"} {
		if err := coord.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	r, err := coord.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	// Direct client folds updates[0] the usual way.
	if err := r.Submit("client-0", updates[0], float64(counts[0])); err != nil {
		t.Fatal(err)
	}
	// The edge's region carries updates[1:].
	edge := orchestrator.NewAggregator(ref, 8)
	for i := 1; i < len(updates); i++ {
		if err := edge.FoldStateDict(updates[i], float64(counts[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SubmitPartial("edge-0", edge.Partial()); err != nil {
		t.Fatal(err)
	}
	got, st, err := r.Commit()
	if err != nil {
		t.Fatal(err)
	}
	dictsBitIdentical(t, want, got)
	if st.Committed != 2 {
		t.Fatalf("Committed = %d, want 2 participants", st.Committed)
	}
	if st.Folded != 4 {
		t.Fatalf("Folded = %d, want 4 client-level updates", st.Folded)
	}
}
