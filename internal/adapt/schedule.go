package adapt

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"fedsz/internal/model"
	"fedsz/internal/stats"
)

// Scheduler turns convergence signals into a round-level error bound:
// it tracks an exponential moving average of (relative) global-update
// norms and scales the base REL bound by the EMA's decay from the
// first observed norm, clamped to [min, max]. Early in training,
// updates are large and the bound sits at its base (the paper's
// recommended 1e-2); as training converges and update norms shrink,
// the bound tightens proportionally, so late-round updates — whose
// information content is small relative to the bound — keep their
// fidelity. A server-directed override (SetBound) wins over the
// schedule, which is how clients follow the coordinator's broadcast.
type Scheduler struct {
	base, min, max float64

	mu       sync.Mutex
	ema      *stats.EMA
	norm0    float64
	override float64
}

func newScheduler(base, min, max, alpha float64) *Scheduler {
	return &Scheduler{base: base, min: min, max: max, ema: stats.NewEMA(alpha)}
}

// Observe feeds one update-norm sample (any consistent scale; the
// schedule depends only on its decay relative to the first sample).
// Non-positive or non-finite samples are ignored. A fresh convergence
// signal supersedes any directive installed with SetBound: a directive
// describes one round, and whoever observes commits is the schedule's
// source of truth — this is what lets a single Policy serve as both a
// coordinator's scheduler and a codec's selector without its own
// broadcast freezing its schedule.
func (s *Scheduler) Observe(norm float64) {
	if norm <= 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.override = 0
	s.ema.Observe(norm)
	if s.norm0 == 0 {
		s.norm0 = s.ema.Value()
	}
}

// Bound returns the effective REL bound for the next round.
func (s *Scheduler) Bound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.base
	switch {
	case s.override > 0:
		b = s.override
	case s.norm0 > 0 && s.ema.Count() > 0:
		b = math.Min(s.max, math.Max(s.min, s.base*s.ema.Value()/s.norm0))
	}
	obsRoundBound.Set(b)
	return b
}

// SetBound installs a server-directed bound override (≤ 0 clears it,
// returning control to the local schedule). The override lasts until
// the next directive or the next observed convergence sample,
// whichever comes first.
func (s *Scheduler) SetBound(b float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b > 0 {
		s.override = b
	} else {
		s.override = 0
	}
}

// schedulerStateVersion tags the snapshot wire format below.
const schedulerStateVersion = 1

// snapshotState serializes the scheduler's mutable convergence state
// (EMA value and count, first-norm anchor, directive override) for the
// coordinator checkpoint. Clamps and alpha are configuration, rebuilt
// from Config on restore.
func (s *Scheduler) snapshotState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	value, count := s.ema.Snapshot()
	out := []byte{schedulerStateVersion}
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(value))
	out = binary.AppendUvarint(out, uint64(count))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(s.norm0))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(s.override))
	return out
}

// restoreState installs a snapshotState blob.
func (s *Scheduler) restoreState(raw []byte) error {
	if len(raw) < 1 || raw[0] != schedulerStateVersion {
		return fmt.Errorf("adapt: unknown scheduler state version")
	}
	raw = raw[1:]
	if len(raw) < 8 {
		return fmt.Errorf("adapt: truncated scheduler state")
	}
	value := math.Float64frombits(binary.BigEndian.Uint64(raw))
	raw = raw[8:]
	count, n := binary.Uvarint(raw)
	if n <= 0 || len(raw[n:]) < 16 {
		return fmt.Errorf("adapt: truncated scheduler state")
	}
	raw = raw[n:]
	norm0 := math.Float64frombits(binary.BigEndian.Uint64(raw))
	override := math.Float64frombits(binary.BigEndian.Uint64(raw[8:]))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ema.Restore(value, int(count))
	s.norm0 = norm0
	s.override = override
	return nil
}

// UpdateNorm measures how much next moved from prev: the L2 norm of
// the float32 parameter delta, normalized by prev's own L2 norm so the
// signal is scale-free across models. Entries are matched by name;
// entries missing on either side contribute nothing.
func UpdateNorm(prev, next *model.StateDict) float64 {
	if prev == nil || next == nil {
		return 0
	}
	var num, den float64
	for _, e := range next.Entries() {
		if e.DType != model.Float32 || e.Tensor == nil {
			continue
		}
		pe, ok := prev.Get(e.Name)
		if !ok || pe.Tensor == nil || pe.Tensor.NumElements() != e.Tensor.NumElements() {
			continue
		}
		pd, nd := pe.Tensor.Data(), e.Tensor.Data()
		for i := range nd {
			d := float64(nd[i]) - float64(pd[i])
			num += float64(d * d)
			den += float64(float64(pd[i]) * float64(pd[i]))
		}
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Sqrt(num)
	}
	return math.Sqrt(num) / math.Sqrt(den)
}
