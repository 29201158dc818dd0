package orchestrator_test

import (
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// The round's commit on a MobileNetV2(1)-shaped aggregator holding two
// committed contributions: Finalize projects the float64 sums into a
// fresh global, NextRound empties them in place. Bytes are the model's
// float32 size, so MB/s reads as model MB committed per second. Run
// with
//
//	go test -run '^$' -bench 'Finalize|NextRound' ./internal/orchestrator

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
