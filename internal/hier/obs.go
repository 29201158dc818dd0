package hier

import (
	"fedsz/internal/obs"
)

// Hierarchical-tier metrics: partial-sum frames crossing tier
// boundaries, in both directions, plus the folded client updates each
// partial carries (the per-tier fan-in signal).
var (
	obsPartials = obs.Default.CounterVec("fedsz_hier_partials_total",
		"Partial-sum frames processed, by direction (encode=sent upstream, decode=received).", "dir")
	obsPartialBytes = obs.Default.CounterVec("fedsz_hier_partial_bytes_total",
		"Partial-sum frame bytes processed, by direction.", "dir")
	obsPartialUpdates = obs.Default.CounterVec("fedsz_hier_partial_updates_total",
		"Client updates carried inside partial-sum frames, by direction.", "dir")
	obsPartialCorrupt = obs.Default.Counter("fedsz_hier_partial_corrupt_total",
		"Partial-sum frames rejected for checksum or structural corruption.")

	obsPartialsEnc       = obsPartials.With("encode")
	obsPartialsDec       = obsPartials.With("decode")
	obsPartialBytesEnc   = obsPartialBytes.With("encode")
	obsPartialBytesDec   = obsPartialBytes.With("decode")
	obsPartialUpdatesEnc = obsPartialUpdates.With("encode")
	obsPartialUpdatesDec = obsPartialUpdates.With("decode")
)
