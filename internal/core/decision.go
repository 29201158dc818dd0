package core

import "time"

// Decision captures the paper's Eqn. 1 evaluation for one transfer:
// compression is worthwhile when tC + tD + S′/B < S/B.
type Decision struct {
	CompressTime    time.Duration // tC
	DecompressTime  time.Duration // tD
	OriginalBytes   int64         // S
	CompressedBytes int64         // S′
	BandwidthBps    float64       // B, bits per second
}

// TransferTime returns the time to move `bytes` over a link of
// bandwidthBps bits per second.
func TransferTime(bytes int64, bandwidthBps float64) time.Duration {
	if bandwidthBps <= 0 {
		return 0
	}
	seconds := float64(bytes*8) / bandwidthBps
	return time.Duration(seconds * float64(time.Second))
}

// CompressedPathTime returns tC + tD + S′/B.
func (d Decision) CompressedPathTime() time.Duration {
	return d.CompressTime + d.DecompressTime + TransferTime(d.CompressedBytes, d.BandwidthBps)
}

// UncompressedPathTime returns S/B.
func (d Decision) UncompressedPathTime() time.Duration {
	return TransferTime(d.OriginalBytes, d.BandwidthBps)
}

// ShouldCompress reports whether Eqn. 1 favors compression.
func (d Decision) ShouldCompress() bool {
	return d.CompressedPathTime() < d.UncompressedPathTime()
}

// PipelinedTime extends Eqn. 1's compressed path with the streaming
// encoder's overlap: when the update is emitted in chunks (one frame
// section per tensor), compressing chunk i+1 overlaps transmitting
// chunk i, so the sender-side cost drops from tC + S′/B to
//
//	max(tC, S′/B) + min(tC, S′/B)/chunks
//
// (the non-bottleneck stage survives only through its first-chunk
// pipeline-fill bubble; with uniform chunks that bubble is 1/n of the
// stage). tD is added unchanged — the receiver's decode overlaps
// reception the same way, but Decision keeps the paper's conservative
// accounting on that side. chunks ≤ 1 degenerates to
// CompressedPathTime. For exact per-chunk modeling use
// netsim.Link.PipelinedTime.
func (d Decision) PipelinedTime(chunks int) time.Duration {
	if chunks <= 1 {
		return d.CompressedPathTime()
	}
	tC := d.CompressTime
	tT := TransferTime(d.CompressedBytes, d.BandwidthBps)
	longer, shorter := tC, tT
	if shorter > longer {
		longer, shorter = shorter, longer
	}
	return longer + shorter/time.Duration(chunks) + d.DecompressTime
}

// CrossoverBandwidthBps returns the bandwidth above which compression
// stops paying off: B* = 8(S − S′)/(tC + tD). Returns 0 when the
// overheads are non-positive (compression always wins) or when the
// compressed size is not smaller.
func (d Decision) CrossoverBandwidthBps() float64 {
	saved := d.OriginalBytes - d.CompressedBytes
	overhead := (d.CompressTime + d.DecompressTime).Seconds()
	if saved <= 0 || overhead <= 0 {
		return 0
	}
	return float64(saved*8) / overhead
}
