// Package adapt is the adaptive compression control plane: the
// runtime replacement for the paper's offline grid search over lossy
// compressors and error bounds. A Policy
//
//   - probes candidate (compressor family, grid setting, error bound,
//     lossless backend) tuples on strided samples of each tensor,
//     scoring the measured compression ratio, encode throughput and
//     bound-verified maximum error, and caches a per-tensor plan that
//     is re-probed periodically (and whenever the scheduled bound
//     moves materially). The candidate grid spans every registered
//     family — the Table I EBLCs, threshold sparsification, derived-
//     width quantization and the gradient-aware predictor compete on
//     equal error-bounded terms, and the unbounded settings
//     (fractional top-k/rand-k, fixed-width QSGD) join the grid when
//     AllowUnbounded pairs them with error feedback;
//   - probes in the background: a cold tensor is served the fallback
//     plan immediately and queued for probing off the encode path, so
//     the first adaptive frame keeps full encode parallelism instead
//     of serializing behind its own probe storm (WaitProbes drains
//     the queue when determinism matters more than latency);
//   - schedules the round-level error bound from convergence signals —
//     an exponential moving average of global-update norms — so the
//     bound tightens as training converges; and
//   - feeds link bandwidth into the decision through the paper's
//     Eqn. 1 machinery (core.Decision.PipelinedShouldCompress): on a
//     slow uplink every candidate beats sending raw, so the plan
//     maximizes ratio; on a fast uplink candidates whose compute cost
//     outweighs their byte savings are filtered out first.
//
// A Policy plugs into the pipeline as core.Selector (fedsz.WithAdaptive)
// and into the orchestrator as its round-bound scheduler; the frames it
// shapes decode through the ordinary registry-backed decoders
// unchanged (see lossy.NameAdaptive for the wire format).
package adapt

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// pipelineChunks approximates the number of frame sections a typical
// update pipelines through the streaming encoder, for the Eqn. 1
// overlap model used when scoring candidates.
const pipelineChunks = 8

// Config parameterizes a Policy. The zero value adapts over every
// canonical registered compressor family and lossless codec at the
// paper's recommended base bound.
type Config struct {
	// Families are the candidate compressor family names (default:
	// every canonical registered family, lossy.Families()). Each
	// family contributes its full parameter grid to the candidate
	// set, filtered to bound-guaranteed settings unless
	// AllowUnbounded is set.
	Families []string
	// AllowUnbounded admits grid settings that do not guarantee the
	// error bound (fractional top-k/rand-k, fixed-width QSGD) into
	// the candidate set. Only enable it when the encode side runs
	// error feedback (core.Config.Feedback) — without it the dropped
	// signal is simply lost.
	AllowUnbounded bool
	// BoundFactors are the candidate error bounds, as multipliers in
	// (0, 1] of the scheduled round bound — 1 probes the scheduled
	// bound itself, 0.5 a twice-tighter variant (more fidelity for
	// tensors that compress well anyway). Default {1}.
	BoundFactors []float64
	// Lossless are the candidate metadata codecs (default:
	// lossless.Names()). An empty probe winner keeps the pipeline's
	// configured codec.
	Lossless []string
	// BaseBound is the REL bound the schedule starts from (default
	// core.DefaultBound, the paper's 1e-2).
	BaseBound float64
	// MinBound / MaxBound clamp the scheduled bound (defaults
	// BaseBound/10 and BaseBound).
	MinBound, MaxBound float64
	// EMAAlpha is the update-norm EMA smoothing factor (default 0.3).
	EMAAlpha float64
	// SampleElems caps the per-tensor probe sample (default 8192).
	SampleElems int
	// ReprobeEvery is how many frames a cached plan serves before the
	// tensor is probed again (default 16). The scheduled bound moving
	// by more than 2x also invalidates a plan immediately.
	ReprobeEvery int
	// BandwidthBps models the client's uplink for Eqn. 1 scoring.
	// 0 means unknown: selection then minimizes bytes on the wire.
	BandwidthBps float64
	// Fallback names the compressor used when every candidate fails
	// its probe (default "sz2", the paper's winner).
	Fallback string
}

func (c Config) withDefaults() Config {
	if len(c.Families) == 0 {
		c.Families = lossy.Families()
	}
	if len(c.BoundFactors) == 0 {
		c.BoundFactors = []float64{1}
	}
	if c.Lossless == nil {
		c.Lossless = lossless.Names()
	}
	if c.BaseBound <= 0 {
		c.BaseBound = core.DefaultBound
	}
	if c.MinBound <= 0 {
		c.MinBound = c.BaseBound / 10
	}
	if c.MaxBound <= 0 {
		c.MaxBound = c.BaseBound
	}
	if c.EMAAlpha <= 0 {
		c.EMAAlpha = 0.3
	}
	if c.SampleElems <= 0 {
		c.SampleElems = 8192
	}
	if c.ReprobeEvery <= 0 {
		c.ReprobeEvery = 16
	}
	if c.Fallback == "" {
		c.Fallback = "sz2"
	}
	return c
}

// plan is one tensor's cached selection.
type plan struct {
	lossy   string        // family name
	setting lossy.Setting // grid setting within the family
	factor  float64       // chosen bound multiplier (≤ 1)
	boundAt float64       // scheduled bound when probed
	age     int           // frames served since the probe
	probes  int64         // candidates measured producing this plan
	pending bool          // a background probe for this tensor is queued/running
	result  Result        // winning probe measurement (diagnostics)
}

// Policy is the adaptive control plane. It implements core.Selector
// (plug in with fedsz.WithAdaptive) and the orchestrator's
// BoundScheduler contract (ObserveCommit/NextBound), and is safe for
// concurrent use from any number of encode workers.
type Policy struct {
	cfg   Config
	sched *Scheduler

	mu        sync.Mutex
	plans     map[string]*plan
	llName    string // cached metadata-codec winner ("" = default)
	llAge     int    // frames since the lossless probe
	llProbed  bool
	probes    int64 // total tensor probes run (diagnostics)
	selected  map[string]int64
	boundSeen float64

	// Background probe queue: SelectTensor enqueues cold/stale tensors
	// here and serves a plan immediately; transient workers (at most
	// probeWorkers) drain the queue off the encode path and exit when
	// it empties. probeIdle signals WaitProbes when queue and in-flight
	// work both reach zero.
	queue     []probeJob
	workers   int
	inflight  int
	probeIdle *sync.Cond
}

// probeJob is one queued background probe. The sample is owned by the
// job (copied from the tensor), since the encoder may mutate the
// tensor as soon as its frame is out.
type probeJob struct {
	name      string
	sample    []float32
	fullElems int
	bound     float64
}

// probeWorkers caps the transient goroutines draining the probe
// queue, keeping probe compute a small fraction of encode compute.
const probeWorkers = 2

// NewPolicy validates cfg (every named family and codec must be
// registered) and returns a ready Policy.
func NewPolicy(cfg Config) (*Policy, error) {
	cfg = cfg.withDefaults()
	for _, name := range append(append([]string{}, cfg.Families...), cfg.Fallback) {
		if name == lossy.NameAdaptive {
			return nil, fmt.Errorf("adapt: %q cannot be its own candidate", name)
		}
		if _, err := lossy.FamilyByName(name); err != nil {
			return nil, fmt.Errorf("adapt: candidate compressor: %w", err)
		}
	}
	if _, err := lossy.New(cfg.Fallback); err != nil {
		return nil, fmt.Errorf("adapt: fallback compressor: %w", err)
	}
	for _, name := range cfg.Lossless {
		if _, err := lossless.New(name); err != nil {
			return nil, fmt.Errorf("adapt: candidate lossless codec: %w", err)
		}
	}
	for _, f := range cfg.BoundFactors {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("adapt: bound factor %v outside (0, 1]", f)
		}
	}
	// Sort a copy: the candidate order must be deterministic for
	// reproducible tie-breaks, without reordering the caller's slice.
	cfg.Families = append([]string(nil), cfg.Families...)
	sort.Strings(cfg.Families)
	p := &Policy{
		cfg:      cfg,
		sched:    newScheduler(cfg.BaseBound, cfg.MinBound, cfg.MaxBound, cfg.EMAAlpha),
		plans:    make(map[string]*plan),
		selected: make(map[string]int64),
	}
	p.probeIdle = sync.NewCond(&p.mu)
	return p, nil
}

// Config returns the effective (defaulted) configuration.
func (p *Policy) Config() Config { return p.cfg }

// Bound returns the currently scheduled round-level REL bound.
func (p *Policy) Bound() float64 { return p.sched.Bound() }

// SetRoundBound installs a server-directed bound for subsequent
// encodes — what a client applies when the coordinator broadcasts the
// next round's bound with the global model. The directive holds until
// the next one arrives, a non-positive value clears it, or the policy
// itself observes a convergence sample (so a policy that is both a
// coordinator's scheduler and a codec's selector keeps scheduling
// instead of echoing its own broadcast forever).
func (p *Policy) SetRoundBound(b float64) { p.sched.SetBound(b) }

// ObserveUpdateNorm feeds one convergence sample (e.g. the relative
// norm of a client's local update) into the bound schedule.
func (p *Policy) ObserveUpdateNorm(norm float64) { p.sched.Observe(norm) }

// ObserveCommit implements the orchestrator's bound-scheduler hook:
// after every committed aggregation step it measures how far the
// global model moved and feeds the schedule.
func (p *Policy) ObserveCommit(prev, next *model.StateDict, _ orchestrator.RoundStats) {
	p.sched.Observe(UpdateNorm(prev, next))
}

// NextBound implements the orchestrator's bound-scheduler hook: the
// bound the coordinator broadcasts for the upcoming round.
func (p *Policy) NextBound() float64 { return p.sched.Bound() }

// SnapshotBoundState implements the orchestrator's optional
// BoundStateSnapshotter hook: it serializes the schedule's convergence
// state so a restarted coordinator resumes the bound schedule instead
// of re-warming from the base bound.
func (p *Policy) SnapshotBoundState() []byte { return p.sched.snapshotState() }

// RestoreBoundState installs a SnapshotBoundState blob.
func (p *Policy) RestoreBoundState(raw []byte) error { return p.sched.restoreState(raw) }

// SelectTensor implements core.Selector: serve the cached plan, and
// when the plan is missing, stale, or was probed under a materially
// different scheduled bound, hand the tensor to the background probe
// queue instead of probing inline. A cold tensor is served the
// fallback plan for the frames the probe is in flight — so the first
// adaptive frame keeps full encode parallelism, paying at worst a few
// fallback-compressed frames — and a stale plan keeps serving (its
// bound multiplier applies to the *current* scheduled bound, so a
// tightened directive is honoured immediately) while its re-probe
// runs. WaitProbes drains the queue when deterministic plans matter
// more than first-frame latency.
func (p *Policy) SelectTensor(name string, data []float32) core.Selection {
	bound := p.sched.Bound()
	p.mu.Lock()
	pl := p.plans[name]
	if pl == nil {
		// Cold tensor: install the fallback as a provisional plan and
		// queue the real probe.
		pl = &plan{lossy: p.cfg.Fallback, factor: 1, boundAt: bound, pending: true}
		p.plans[name] = pl
		p.enqueueProbeLocked(name, data, bound)
	} else if (pl.age >= p.cfg.ReprobeEvery || boundDrifted(pl.boundAt, bound)) && !pl.pending {
		pl.pending = true
		p.enqueueProbeLocked(name, data, bound)
	}
	pl.age++
	p.selected[pl.lossy]++
	obsSelected.With(pl.lossy).Inc()
	p.boundSeen = bound
	sel := core.Selection{Lossy: pl.lossy, Setting: pl.setting, Bound: lossy.RelBound(bound * pl.factor)}
	p.mu.Unlock()
	return sel
}

// enqueueProbeLocked queues a background probe for name, copying the
// sample out of the caller-owned tensor, and ensures a worker is
// draining the queue. Caller holds p.mu.
func (p *Policy) enqueueProbeLocked(name string, data []float32, bound float64) {
	p.queue = append(p.queue, probeJob{
		name:      name,
		sample:    copySample(data, p.cfg.SampleElems),
		fullElems: len(data),
		bound:     bound,
	})
	obsProbeQueue.Add(1)
	if p.workers < probeWorkers {
		p.workers++
		go p.probeWorker()
	}
}

// probeWorker drains the probe queue, installing each probed plan
// under the lock, and exits when the queue empties.
func (p *Policy) probeWorker() {
	p.mu.Lock()
	for len(p.queue) > 0 {
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.inflight++
		p.mu.Unlock()

		pl := p.probeSample(job.sample, job.fullElems, job.bound)

		p.mu.Lock()
		p.inflight--
		if old := p.plans[job.name]; old != nil && old.lossy != pl.lossy {
			obsPlanSwitches.With(pl.lossy).Inc()
		}
		p.plans[job.name] = pl
		p.probes += pl.probes
		obsProbes.Add(pl.probes)
		obsProbeQueue.Add(-1)
	}
	p.workers--
	if len(p.queue) == 0 && p.inflight == 0 {
		p.probeIdle.Broadcast()
	}
	p.mu.Unlock()
}

// WaitProbes blocks until the background probe queue is fully
// drained, so subsequent SelectTensor calls serve probed plans.
// Benchmarks and tests use it for deterministic selections; a serving
// path never needs it.
func (p *Policy) WaitProbes() {
	p.mu.Lock()
	for len(p.queue) > 0 || p.inflight > 0 {
		p.probeIdle.Wait()
	}
	p.mu.Unlock()
}

// boundDrifted reports a scheduled-bound move large enough (2x either
// way) to invalidate a cached plan.
func boundDrifted(probedAt, now float64) bool {
	return probedAt <= 0 || now > 2*probedAt || now < probedAt/2
}

// probeSample runs the candidate grid — every configured family ×
// its settings × the bound factors — on an owned tensor sample and
// scores the results. It touches no Policy state (the worker folds
// the returned plan in under the lock), so probes for different
// tensors run concurrently with each other and with serving.
func (p *Policy) probeSample(sample []float32, fullElems int, bound float64) *plan {
	effAbs, err := lossy.RelBound(bound).Resolve(sample)
	if err != nil {
		return &plan{lossy: p.cfg.Fallback, factor: 1, boundAt: bound}
	}
	fullBytes := int64(fullElems * 4)

	found := false
	var bestR Result
	var probes int64
	for _, famName := range p.cfg.Families {
		fam, err := lossy.FamilyByName(famName)
		if err != nil {
			continue
		}
		for _, s := range lossy.GridOf(fam) {
			bounded := fam.Bounded(s)
			if !bounded && !p.cfg.AllowUnbounded {
				continue
			}
			comp, err := fam.Compressor(s)
			if err != nil {
				continue
			}
			for _, f := range p.cfg.BoundFactors {
				c := Candidate{Lossy: famName, Setting: s, Bound: lossy.RelBound(bound * f)}
				r := probeCandidate(sample, comp, c, effAbs, bounded)
				probes++
				if !r.BoundOK {
					continue
				}
				if !found || p.better(r, bestR, fullBytes) {
					found, bestR = true, r
				}
			}
		}
	}
	if !found {
		return &plan{lossy: p.cfg.Fallback, factor: 1, boundAt: bound, probes: probes}
	}
	factor := bestR.Bound.Bound / bound
	return &plan{lossy: bestR.Lossy, setting: bestR.Setting, factor: factor, boundAt: bound, probes: probes, result: bestR}
}

// better reports whether candidate a beats the incumbent b for a
// tensor of fullBytes. Candidates that fail Eqn. 1 on the modeled
// uplink (compressing slower than sending their savings' worth of raw
// bytes, even pipelined) lose to ones that pass; among peers the
// smaller estimated wire size wins, with measured encode throughput as
// the tie-break — so slow uplinks prefer higher ratios and fast
// uplinks shed compute-bound candidates.
func (p *Policy) better(a, b Result, fullBytes int64) bool {
	av, bv := p.viable(a, fullBytes), p.viable(b, fullBytes)
	if av != bv {
		return av
	}
	ab, bb := estBytes(a, fullBytes), estBytes(b, fullBytes)
	if ab != bb {
		return ab < bb
	}
	return a.EncodeBps > b.EncodeBps
}

// viable evaluates the paper's Eqn. 1 under the streaming overlap
// model for one candidate. With no bandwidth estimate every candidate
// is viable and selection degenerates to pure ratio.
func (p *Policy) viable(r Result, fullBytes int64) bool {
	if p.cfg.BandwidthBps <= 0 {
		return true
	}
	d := core.Decision{
		CompressTime:    time.Duration(float64(fullBytes) / r.EncodeBps * float64(time.Second)),
		OriginalBytes:   fullBytes,
		CompressedBytes: estBytes(r, fullBytes),
		BandwidthBps:    p.cfg.BandwidthBps,
	}
	return d.PipelinedShouldCompress(pipelineChunks)
}

// estBytes extrapolates a probe's sample ratio to the full tensor.
func estBytes(r Result, fullBytes int64) int64 {
	if r.Ratio <= 0 {
		return fullBytes
	}
	return int64(float64(fullBytes) / r.Ratio)
}

// SelectLossless implements core.Selector: the cached metadata-codec
// plan ("" until the first ObserveMeta probe completes).
func (p *Policy) SelectLossless() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.llName
}

// ObserveMeta implements core.Selector: probe the lossless candidates
// on this frame's serialized metadata and cache the smallest-output
// codec for subsequent frames (re-probed on the same cadence as
// tensor plans). Metadata sections are small, so the probe compresses
// the real payload rather than a sample.
func (p *Policy) ObserveMeta(raw []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.llProbed && p.llAge < p.cfg.ReprobeEvery {
		p.llAge++
		return
	}
	p.llProbed, p.llAge = true, 1
	if len(raw) == 0 || len(p.cfg.Lossless) == 0 {
		return
	}
	bestName, bestLen := "", -1
	for _, name := range p.cfg.Lossless {
		c, err := lossless.New(name)
		if err != nil {
			continue
		}
		buf, err := c.Compress(raw)
		if err != nil {
			continue
		}
		if bestLen < 0 || len(buf) < bestLen {
			bestName, bestLen = name, len(buf)
		}
	}
	p.llName = bestName
}

// PlanInfo is one cached per-tensor plan, for diagnostics.
type PlanInfo struct {
	Tensor  string
	Lossy   string
	Setting string  // grid setting within the family ("default" = zero)
	Bound   float64 // effective REL bound the plan applies today
	Ratio   float64 // probe-measured sample ratio
	MaxErr  float64 // probe-measured max abs error
}

// Plans snapshots the cached per-tensor plans in tensor-name order.
func (p *Policy) Plans() []PlanInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	bound := p.boundSeen
	if bound <= 0 {
		bound = p.cfg.BaseBound
	}
	out := make([]PlanInfo, 0, len(p.plans))
	for name, pl := range p.plans {
		out = append(out, PlanInfo{
			Tensor:  name,
			Lossy:   pl.lossy,
			Setting: pl.setting.String(),
			Bound:   bound * pl.factor,
			Ratio:   pl.result.Ratio,
			MaxErr:  pl.result.MaxAbsErr,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tensor < out[j].Tensor })
	return out
}
