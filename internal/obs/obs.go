// Package obs is the federation's observability layer: a
// dependency-free, allocation-conscious metrics registry plus a ring
// buffer of structured round spans (trace.go) and HTTP exposition
// (http.go).
//
// Design constraints, in order:
//
//  1. Hot paths (streaming decode, shard folds) must pay near zero:
//     an update on a resolved instrument is one atomic RMW guarded by
//     a relaxed flag load, and never allocates. Callers resolve
//     instruments once (package init or per-frame) and cache the
//     pointer; resolution is the only path that takes a lock.
//  2. Everything is optional: all instrument methods are no-ops on a
//     nil receiver, so code instruments unconditionally and a
//     disabled registry simply hands out nil instruments.
//  3. Stdlib only — the binaries must build in a hermetic container.
//
// The package-level Default registry is what the packages under
// internal/ instrument and what fedszserver/fedszedge expose over
// -metrics-addr. SetDisabled short-circuits every update in the
// process (the arm core.TestDecodeAllocsUnchangedByObs compares
// against); Disabled is a structurally inert registry whose
// constructors return nil instruments for callers that want zero cost
// without the global switch.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Packages under internal/
// register their instruments here at init; the -metrics-addr listener
// serves it.
var Default = NewRegistry()

// Disabled is an inert registry: every constructor returns a nil
// instrument (whose methods are no-ops) and WritePrometheus writes
// nothing.
var Disabled = &Registry{inert: true}

// off short-circuits every instrument update in the process when set.
// A relaxed atomic load per update is the entire cost of the switch.
var off atomic.Bool

// SetDisabled turns all metric updates in the process on or off.
// Resolution (Counter/CounterVec/...) still works while disabled, so
// instruments cached by hot paths stay valid; their updates become
// single-branch no-ops.
func SetDisabled(v bool) { off.Store(v) }

// IsDisabled reports whether updates are currently short-circuited.
func IsDisabled() bool { return off.Load() }

// Counter is a monotonically increasing int64. The zero value is
// ready to use; a nil *Counter is a valid no-op instrument.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil || off.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 that can go up and down. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil || off.Load() {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil || off.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float64 gauge (e.g. the current round bound).
type FloatGauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) {
	if g == nil || off.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic bucket counts.
// Buckets are cumulative-upper-bound style (Prometheus "le"): counts
// [i] is the number of observations ≤ bounds[i]; the final implicit
// bucket is +Inf. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; non-cumulative per bucket
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 CAS-add
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || off.Load() {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindGauge, kindFloatGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// family is one named metric family: a fixed label-key schema and a
// map of label-value tuples to live instruments.
type family struct {
	name   string
	help   string
	kind   kind
	keys   []string
	bounds []float64 // histogram families only

	mu    sync.RWMutex
	inst  map[string]any // joined label values -> instrument
	order []string       // insertion order of keys in inst
	vals  map[string][]string
}

const labelSep = "\x1f"

func (f *family) get(values []string) any {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("obs: metric %s wants %d label value(s), got %d", f.name, len(f.keys), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	in, ok := f.inst[key]
	f.mu.RUnlock()
	if ok {
		return in
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if in, ok := f.inst[key]; ok {
		return in
	}
	switch f.kind {
	case kindGauge:
		in = new(Gauge)
	case kindFloatGauge:
		in = new(FloatGauge)
	case kindHistogram:
		in = newHistogram(f.bounds)
	default:
		in = new(Counter)
	}
	vals := make([]string, len(values))
	copy(vals, values)
	f.inst[key] = in
	f.order = append(f.order, key)
	f.vals[key] = vals
	return in
}

// Registry holds metric families. Resolution takes a short lock;
// updates on resolved instruments never touch the registry.
type Registry struct {
	inert bool

	mu       sync.RWMutex
	fams     map[string]*family
	order    []string
	samplers []func() // run before every exposition (see onScrape)
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// onScrape registers fn to run at the start of every exposition of the
// registry (WritePrometheus): the place for series that are
// read from somewhere else on demand instead of being pushed on a hot
// path, such as the runtime's memory statistics (runtime.go).
func (r *Registry) onScrape(fn func()) {
	if r == nil || r.inert {
		return
	}
	r.mu.Lock()
	r.samplers = append(r.samplers, fn)
	r.mu.Unlock()
}

// scrape runs the samplers and returns the families in registration
// order.
func (r *Registry) scrape() []*family {
	r.mu.RLock()
	samplers := r.samplers // append-only: this view stays valid unlocked
	r.mu.RUnlock()
	for _, fn := range samplers {
		fn()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.fams[n])
	}
	return fams
}

func (r *Registry) family(name, help string, k kind, keys []string, bounds []float64) *family {
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.fams[name]; !ok {
			f = &family{
				name: name, help: help, kind: k, keys: keys, bounds: bounds,
				inst: make(map[string]any), vals: make(map[string][]string),
			}
			r.fams[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.kind != k || len(f.keys) != len(keys) {
		panic(fmt.Sprintf("obs: metric %s re-registered with a different schema", name))
	}
	return f
}

// Counter returns the unlabeled counter with the given name,
// creating it on first use. Nil on an inert registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil || r.inert {
		return nil
	}
	return r.family(name, help, kindCounter, nil, nil).get(nil).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil || r.inert {
		return nil
	}
	return r.family(name, help, kindGauge, nil, nil).get(nil).(*Gauge)
}

// FloatGauge returns the unlabeled float gauge with the given name.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	if r == nil || r.inert {
		return nil
	}
	return r.family(name, help, kindFloatGauge, nil, nil).get(nil).(*FloatGauge)
}

// Histogram returns the unlabeled histogram with the given name and
// bucket upper bounds (sorted copies are taken).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil || r.inert {
		return nil
	}
	return r.family(name, help, kindHistogram, nil, bounds).get(nil).(*Histogram)
}

// CounterVec declares a labeled counter family. The returned vec
// resolves instruments per label-value tuple; hot paths should cache
// the resolved *Counter rather than calling With per update.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if r == nil || r.inert {
		return &CounterVec{}
	}
	return &CounterVec{f: r.family(name, help, kindCounter, keys, nil)}
}

// GaugeVec declares a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	if r == nil || r.inert {
		return &GaugeVec{}
	}
	return &GaugeVec{f: r.family(name, help, kindGauge, keys, nil)}
}

// HistogramVec declares a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, keys ...string) *HistogramVec {
	if r == nil || r.inert {
		return &HistogramVec{}
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, keys, bounds)}
}

// CounterVec resolves counters by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per key,
// in declaration order). Resolution allocates only on first use of a
// tuple; cache the result on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values).(*Counter)
}

// GaugeVec resolves gauges by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values).(*Gauge)
}

// HistogramVec resolves histograms by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values).(*Histogram)
}

// Value returns the current value of the named instrument with the
// given label values ("" join for unlabeled), or 0 when absent. For
// histograms it returns the observation count. Intended for tests,
// not hot paths.
func (r *Registry) Value(name string, values ...string) float64 {
	if r == nil || r.inert {
		return 0
	}
	r.mu.RLock()
	f, ok := r.fams[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	in, ok := f.inst[key]
	f.mu.RUnlock()
	if !ok {
		return 0
	}
	switch m := in.(type) {
	case *Counter:
		return float64(m.Value())
	case *Gauge:
		return float64(m.Value())
	case *FloatGauge:
		return m.Value()
	case *Histogram:
		return float64(m.Count())
	}
	return 0
}

// DurationBuckets are histogram bounds in seconds for latencies from
// 100µs to ~2 minutes.
var DurationBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 120}

// RatioBuckets are histogram bounds for compression ratios.
var RatioBuckets = []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 128}
