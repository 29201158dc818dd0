// Plan priors: the cross-client plan-sharing half of the hierarchical
// tier. Every adaptive client pays the full probe grid for every
// tensor it encodes; across a fleet that work is massively redundant —
// the same tensors mostly pick the same (family, setting, bound
// factor) everywhere. A Prior aggregates probed plans into a
// population-level vote: edges merge their region's client priors,
// the coordinator merges the regional priors, and the merged prior is
// broadcast alongside MsgRoundBound. A client that receives it seeds
// its COLD tensors from the fleet's majority plan instead of the
// static fallback, so its first frames ship near-optimal while its
// own background probes (which always run, and always win once
// measured) are still in flight.
package adapt

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"fedsz/internal/lossy"
)

// PriorPlan is one tensor's population-voted plan.
type PriorPlan struct {
	Lossy    string        // winning compressor family
	Setting  lossy.Setting // winning grid setting within the family
	Factor   float64       // bound multiplier in (0, 1]
	Votes    int           // probed plans behind this vote
	MeanRate float64       // vote-weighted mean probed ratio (diagnostics)
}

// Prior is a population-level plan prior: tensor name → voted plan.
type Prior struct {
	Tensors map[string]PriorPlan
}

// Len returns the number of tensors the prior covers.
func (p *Prior) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Tensors)
}

// ExportPrior snapshots the policy's probed plans as a single-client
// prior (one vote per tensor). Provisional fallback plans whose probe
// is still in flight — and plans seeded from someone else's prior —
// are excluded: only locally measured selections count as votes, so
// merged priors never launder hearsay into consensus.
func (p *Policy) ExportPrior() *Prior {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &Prior{Tensors: make(map[string]PriorPlan)}
	for name, pl := range p.plans {
		if pl.probes == 0 {
			continue
		}
		out.Tensors[name] = PriorPlan{
			Lossy:    pl.lossy,
			Setting:  pl.setting,
			Factor:   pl.factor,
			Votes:    1,
			MeanRate: pl.result.Ratio,
		}
	}
	if len(out.Tensors) == 0 {
		return nil
	}
	return out
}

// ApplyPrior seeds the policy's cold tensors from a population prior:
// a tensor with no cached plan gets the voted plan installed as its
// provisional selection. Tensors the policy has already probed (or
// has a probe in flight for) are left alone — local measurement
// always outranks the fleet's vote — and the seeded plan still ages
// onto the normal re-probe cadence, so the prior only ever shortcuts
// the cold-start window. Unknown families are skipped.
func (p *Policy) ApplyPrior(pr *Prior) {
	if pr == nil || len(pr.Tensors) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	bound := p.sched.Bound()
	for name, vote := range pr.Tensors {
		if _, ok := p.plans[name]; ok {
			continue
		}
		if _, err := lossy.FamilyByName(vote.Lossy); err != nil {
			continue
		}
		factor := vote.Factor
		if factor <= 0 || factor > 1 {
			factor = 1
		}
		p.plans[name] = &plan{
			lossy:   vote.Lossy,
			setting: vote.Setting,
			factor:  factor,
			boundAt: bound,
		}
	}
}

// MergePriors folds any number of priors into a population consensus:
// per tensor, the (family, setting) pair with the most votes wins
// (ties break lexically for determinism), its factor and rate are the
// vote-weighted means of the winning pair's votes, and vote counts
// accumulate — so a merge of merges weighs regions by their client
// counts. Nil priors are skipped; a merge of nothing returns nil.
func MergePriors(priors ...*Prior) *Prior {
	type bucket struct {
		votes     int
		factorSum float64 // vote-weighted
		rateSum   float64 // vote-weighted
	}
	acc := make(map[string]map[string]*bucket) // tensor → pairKey → tally
	pairPlan := make(map[string]PriorPlan)     // pairKey → representative plan
	for _, pr := range priors {
		if pr == nil {
			continue
		}
		for name, vote := range pr.Tensors {
			if vote.Votes <= 0 {
				continue
			}
			key := vote.Lossy + "|" + vote.Setting.String()
			m := acc[name]
			if m == nil {
				m = make(map[string]*bucket)
				acc[name] = m
			}
			b := m[key]
			if b == nil {
				b = &bucket{}
				m[key] = b
				pairPlan[key] = vote
			}
			b.votes += vote.Votes
			b.factorSum += float64(vote.Factor * float64(vote.Votes))
			b.rateSum += float64(vote.MeanRate * float64(vote.Votes))
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := &Prior{Tensors: make(map[string]PriorPlan, len(acc))}
	for name, m := range acc {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		bestKey := keys[0]
		for _, k := range keys[1:] {
			if m[k].votes > m[bestKey].votes {
				bestKey = k
			}
		}
		b := m[bestKey]
		rep := pairPlan[bestKey]
		out.Tensors[name] = PriorPlan{
			Lossy:    rep.Lossy,
			Setting:  rep.Setting,
			Factor:   b.factorSum / float64(b.votes),
			Votes:    b.votes,
			MeanRate: b.rateSum / float64(b.votes),
		}
	}
	return out
}

// priorVersion pins the prior blob format.
const priorVersion = 1

// EncodePrior serializes a prior for the wire (nil or empty → nil).
func EncodePrior(pr *Prior) []byte {
	if pr == nil || len(pr.Tensors) == 0 {
		return nil
	}
	names := make([]string, 0, len(pr.Tensors))
	for name := range pr.Tensors {
		names = append(names, name)
	}
	sort.Strings(names)
	out := []byte{priorVersion}
	out = binary.AppendUvarint(out, uint64(len(names)))
	for _, name := range names {
		vote := pr.Tensors[name]
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(len(vote.Lossy)))
		out = append(out, vote.Lossy...)
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(vote.Setting.Fraction))
		out = binary.AppendUvarint(out, uint64(vote.Setting.Bits))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(vote.Factor))
		out = binary.AppendUvarint(out, uint64(vote.Votes))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(vote.MeanRate))
	}
	return out
}

// DecodePrior parses an EncodePrior blob (nil/empty → nil, nil).
func DecodePrior(raw []byte) (*Prior, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	if raw[0] != priorVersion {
		return nil, fmt.Errorf("adapt: prior version %d", raw[0])
	}
	pos := 1
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("adapt: truncated prior")
		}
		pos += n
		return v, nil
	}
	f64 := func() (float64, error) {
		if pos+8 > len(raw) {
			return 0, fmt.Errorf("adapt: truncated prior")
		}
		v := math.Float64frombits(binary.BigEndian.Uint64(raw[pos:]))
		pos += 8
		return v, nil
	}
	str := func(max uint64) (string, error) {
		n, err := uvarint()
		if err != nil {
			return "", err
		}
		if n > max || pos+int(n) > len(raw) {
			return "", fmt.Errorf("adapt: truncated prior")
		}
		s := string(raw[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}

	count, err := uvarint()
	if err != nil || count > 1<<20 {
		return nil, fmt.Errorf("adapt: bad prior tensor count")
	}
	pr := &Prior{Tensors: make(map[string]PriorPlan, count)}
	for i := uint64(0); i < count; i++ {
		name, err := str(4096)
		if err != nil {
			return nil, err
		}
		family, err := str(256)
		if err != nil {
			return nil, err
		}
		var vote PriorPlan
		vote.Lossy = family
		if vote.Setting.Fraction, err = f64(); err != nil {
			return nil, err
		}
		bits, err := uvarint()
		if err != nil {
			return nil, err
		}
		vote.Setting.Bits = int(bits)
		if vote.Factor, err = f64(); err != nil {
			return nil, err
		}
		votes, err := uvarint()
		if err != nil {
			return nil, err
		}
		vote.Votes = int(votes)
		if vote.MeanRate, err = f64(); err != nil {
			return nil, err
		}
		pr.Tensors[name] = vote
	}
	return pr, nil
}

// ExportPriorBytes is ExportPrior pre-encoded for the wire — the
// structural hook fl.PriorAware probes for, so the fl codec layer
// never imports this package.
func (p *Policy) ExportPriorBytes() []byte { return EncodePrior(p.ExportPrior()) }

// ApplyPriorBytes decodes and applies a population prior blob.
func (p *Policy) ApplyPriorBytes(raw []byte) error {
	pr, err := DecodePrior(raw)
	if err != nil {
		return err
	}
	p.ApplyPrior(pr)
	return nil
}

// MergePriorBlobs merges encoded priors and re-encodes the consensus
// (the coordinator- and edge-side merge step; undecodable blobs are
// dropped rather than poisoning the merge).
func MergePriorBlobs(blobs ...[]byte) []byte {
	priors := make([]*Prior, 0, len(blobs))
	for _, b := range blobs {
		pr, err := DecodePrior(b)
		if err != nil || pr == nil {
			continue
		}
		priors = append(priors, pr)
	}
	return EncodePrior(MergePriors(priors...))
}
