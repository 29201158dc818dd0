package orchestrator

import (
	"fedsz/internal/obs"
)

// Orchestration-layer metrics. Fold-path instruments are plain
// counters (atomic adds, no label resolution) because Fold runs once
// per decoded tensor from concurrent decode workers.
var (
	obsRounds = obs.Default.Counter("fedsz_rounds_committed_total",
		"Synchronous rounds committed into the global model.")
	obsRoundSeconds = obs.Default.Histogram("fedsz_round_seconds",
		"Wall time from StartRound to Commit.", obs.DurationBuckets)
	obsCommitSeconds = obs.Default.Histogram("fedsz_round_commit_seconds",
		"Commit latency: finalize the aggregate and install the new global.", obs.DurationBuckets)
	obsDrops = obs.Default.CounterVec("fedsz_drops_total",
		"Participant withdrawals, by drop reason.", "reason")
	obsFolds = obs.Default.Counter("fedsz_agg_folds_total",
		"Tensor entries folded into streaming aggregates.")
	obsFoldElements = obs.Default.Counter("fedsz_agg_fold_elements_total",
		"Float elements folded into streaming aggregates.")
	obsWithdrawals = obs.Default.Counter("fedsz_agg_withdrawals_total",
		"In-flight contributions aborted and subtracted back out.")
	obsUndoReplayed = obs.Default.Counter("fedsz_agg_undo_replayed_entries_total",
		"Lent tensor entries re-decoded from their compressed section to undo an aborted fold.")
	obsPoisoned = obs.Default.Counter("fedsz_agg_poisoned_total",
		"Aggregators abandoned because an abort could not undo its folds (must stay 0).")
	obsCkptSaveSeconds = obs.Default.Histogram("fedsz_checkpoint_save_seconds",
		"Checkpoint marshal+fsync+rename duration.", obs.DurationBuckets)
	obsCkptLoadSeconds = obs.Default.Histogram("fedsz_checkpoint_restore_seconds",
		"Checkpoint read+verify duration.", obs.DurationBuckets)
	obsCkptFailures = obs.Default.CounterVec("fedsz_checkpoint_failures_total",
		"Checkpoint operations that failed, by operation.", "op")
)

// dropCounters pre-resolves the per-reason drop counters so the drop
// path (which can fire per straggler per round) never rebuilds label
// tuples.
var dropCounters = func() [dropReasonCount]*obs.Counter {
	var cs [dropReasonCount]*obs.Counter
	for r := DropReason(0); r < dropReasonCount; r++ {
		cs[r] = obsDrops.With(r.String())
	}
	return cs
}()

func dropCounter(reason DropReason) *obs.Counter {
	if reason >= 0 && reason < dropReasonCount {
		return dropCounters[reason]
	}
	return obsDrops.With(reason.String())
}
