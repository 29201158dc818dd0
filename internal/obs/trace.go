package obs

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// NewTraceID returns a fresh 64-bit trace identifier as 16 lowercase
// hex digits. IDs only need to be unique within the trace retention
// window of one federation, so a process-seeded PRNG is plenty.
func NewTraceID() string {
	traceRandMu.Lock()
	id := traceRandSrc.Uint64()
	traceRandMu.Unlock()
	return fmt.Sprintf("%016x", id)
}

var (
	traceRandMu  sync.Mutex
	traceRandSrc = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// SpanClient is one participant's outcome inside a round span.
type SpanClient struct {
	ID string `json:"id"`
	// Outcome is "committed" or the drop reason that removed the
	// client ("leave", "deadline", "corrupt", "disconnect", ...).
	Outcome string `json:"outcome"`
	// BytesUp / BytesDown are the conn-level bytes read from and
	// written to this participant during the round.
	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`
	// TimeNs is when this participant settled (committed or dropped),
	// measured from the start of the round's gather phase. The maximum
	// over participants is what gated the round — the critical-path
	// assembler descends into it.
	TimeNs int64 `json:"time_ns,omitempty"`
}

// RoundSpan is one structured record of a federation round, captured
// by the orchestrated server (tier "coordinator") and by each edge
// for its regional rounds (tier "edge"). Phases are sequential wall
// times except DecodeFoldNs, which is the cumulative time spent in
// the decode→fold pipeline summed across concurrent participant
// connections (it overlaps GatherNs and can exceed it).
type RoundSpan struct {
	Tier    string    `json:"tier"`
	Round   int       `json:"round"`
	Version int       `json:"version,omitempty"`
	Start   time.Time `json:"start"`

	// TraceID correlates this span with the same federation round on
	// every other tier: the coordinator stamps one per round and
	// broadcasts it down the tree, edges tag their regional spans with
	// it, and the assembler joins spans across tiers on it. Empty on
	// rounds recorded before tracing (or by a pre-tracing coordinator).
	TraceID string `json:"trace_id,omitempty"`

	TotalNs      int64 `json:"total_ns"`
	BroadcastNs  int64 `json:"broadcast_ns"`
	GatherNs     int64 `json:"gather_ns"`
	DecodeFoldNs int64 `json:"decode_fold_ns"`
	CommitNs     int64 `json:"commit_ns"`

	BytesUp   int64 `json:"bytes_up"`
	BytesDown int64 `json:"bytes_down"`

	Sampled   int `json:"sampled"`
	Committed int `json:"committed"`
	Dropped   int `json:"dropped"`

	// Down is how the round's global model travelled to this tier's
	// participants; nil when it went raw without the tier weighing the
	// alternative (no link rate declared).
	Down *SpanDownlink `json:"down,omitempty"`

	Clients []SpanClient `json:"clients,omitempty"`
}

// SpanDownlink is one round's downlink decision: the terms of the
// paper's Eqn. 1 (tC + tD + S'/B < S/B) as this tier saw them.
type SpanDownlink struct {
	// Mode is "frame" (this tier encoded the global through its codec),
	// "relay" (it passed an upstream tier's frame on untouched) or "raw"
	// (it encoded a frame and the gate turned it down).
	Mode string `json:"mode"`
	// RawBytes is S, the model's tensor bytes; WireBytes is S', the
	// frame.
	RawBytes  int64 `json:"raw_bytes"`
	WireBytes int64 `json:"wire_bytes"`
	// EncodeNs is the measured tC (0 on a relay: the encode was paid
	// upstream, once).
	EncodeNs int64 `json:"encode_ns,omitempty"`
	// MarginNs is S/B − (tC + S'/B) on the tier's declared link rate B
	// with the measured tC: what the frame saved each participant over
	// the raw model, before the participant's own tD. The gate itself
	// charges tC + tD as a constant so that it never reads a clock; a
	// margin that turns negative while Mode is "frame" says the constant
	// is too generous for this host. 0 on a relay.
	MarginNs int64 `json:"margin_ns,omitempty"`
}

// RoundTrace is a fixed-capacity ring buffer of round spans.
// The zero value is unusable; use NewRoundTrace. A nil *RoundTrace
// drops spans silently.
type RoundTrace struct {
	mu    sync.Mutex
	buf   []RoundSpan
	next  int
	total int64
}

// DefaultTraceCap is the capacity of the package-level trace.
const DefaultTraceCap = 128

// DefaultTrace receives spans from every tier in the process and
// backs the /rounds endpoint.
var DefaultTrace = NewRoundTrace(DefaultTraceCap)

// NewRoundTrace returns a trace retaining the last cap spans.
func NewRoundTrace(cap int) *RoundTrace {
	if cap < 1 {
		cap = 1
	}
	return &RoundTrace{buf: make([]RoundSpan, 0, cap)}
}

// Add appends a span, evicting the oldest when full.
func (t *RoundTrace) Add(s RoundSpan) {
	if t == nil || off.Load() {
		return
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.total++
	t.mu.Unlock()
}

// Resize changes the trace's retention capacity in place, keeping the
// newest min(n, Len) spans. Binaries expose it as -trace-rounds; a
// long soak can retain hours of rounds, a memory-tight edge can shrink
// to a handful. No-op when the capacity already matches.
func (t *RoundTrace) Resize(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == cap(t.buf) {
		return
	}
	keep := t.recentLocked(n)
	t.buf = make([]RoundSpan, len(keep), n)
	copy(t.buf, keep)
	t.next = len(t.buf) % n
}

// Cap returns the trace's retention capacity.
func (t *RoundTrace) Cap() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.buf)
}

// Len returns the number of retained spans.
func (t *RoundTrace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns the number of spans ever added.
func (t *RoundTrace) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Recent returns up to n spans, newest last. n <= 0 returns all
// retained spans.
func (t *RoundTrace) Recent(n int) []RoundSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recentLocked(n)
}

// recentLocked is Recent with t.mu held.
func (t *RoundTrace) recentLocked(n int) []RoundSpan {
	m := len(t.buf)
	if n <= 0 || n > m {
		n = m
	}
	out := make([]RoundSpan, 0, n)
	// Oldest retained span sits at t.next once the ring has wrapped.
	start := 0
	if m == cap(t.buf) {
		start = t.next
	}
	for i := m - n; i < m; i++ {
		out = append(out, t.buf[(start+i)%m])
	}
	return out
}
