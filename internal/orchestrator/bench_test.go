package orchestrator_test

import (
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// The aggregator's whole-model loops on a MobileNetV2(1)-shaped
// aggregator. Fold adds one update's weighted float32 values into the
// float64 sums (per element 4 B read, 8 B read, 8 B written),
// FoldPartial adds another aggregator's sums verbatim (8 + 8 read, 8
// written); neither opens a contribution, so each allocates nothing.
// Over two committed contributions, Finalize projects the sums into a
// fresh global (8 B read, 4 B written) and NextRound empties them in
// place. Bytes are the model's float32 size, so MB/s reads as model MB
// folded or committed per second. Run with
//
//	go test -run '^$' -bench 'Fold|Finalize|NextRound' -cpu 1,2 ./internal/orchestrator

func committedMobileNet(b *testing.B) (*model.StateDict, *orchestrator.Aggregator) {
	b.Helper()
	ref := model.BuildStateDict(model.MobileNetV2(1), 42)
	agg := orchestrator.NewAggregator(ref, 0)
	for k, w := range []float64{100, 101} {
		if err := agg.FoldStateDict(model.BuildStateDict(model.MobileNetV2(1), int64(43+k)), w); err != nil {
			b.Fatal(err)
		}
	}
	return ref, agg
}

func BenchmarkFinalize(b *testing.B) {
	ref, agg := committedMobileNet(b)
	b.SetBytes(ref.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNextRound(b *testing.B) {
	ref, agg := committedMobileNet(b)
	b.SetBytes(ref.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next := agg.NextRound(ref, 0); next != agg {
			b.Fatal("NextRound replaced a settled aggregator")
		}
	}
}

func BenchmarkFold(b *testing.B) {
	ref, agg := committedMobileNet(b)
	update := model.BuildStateDict(model.MobileNetV2(1), 45)
	b.SetBytes(ref.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.FoldSums(update, 100)
	}
}

func BenchmarkFoldPartial(b *testing.B) {
	ref, agg := committedMobileNet(b)
	_, region := committedMobileNet(b)
	p := region.Partial()
	b.SetBytes(ref.SizeBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.FoldPartialSums(p)
	}
}
