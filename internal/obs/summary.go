package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// SpanSummary is the compact cross-tier form of a round span: what an
// edge aggregator ships upstream (once per region per round) so the
// coordinator can assemble the whole federation's round tree. It
// carries the edge's own RoundSpan plus the summaries its nested
// edges handed it, so arbitrarily deep tiers fold into one trailer.
//
// The wire form (EncodeSpanSummary) is versioned and deliberately
// boring — uvarints and length-prefixed strings — so old coordinators
// can skip a newer trailer wholesale and new coordinators accept a
// missing one (a pre-tracing edge) as "region present, subtree
// unknown".
type SpanSummary struct {
	Span     RoundSpan      `json:"span"`
	Children []ChildSummary `json:"children,omitempty"`
}

// ChildSummary is one nested region's summary, keyed by the ID the
// receiving tier assigned the child on its own listener.
type ChildSummary struct {
	ID  string       `json:"id"`
	Sum *SpanSummary `json:"summary"`
}

// spanSummaryVersion is the trailer wire version this package emits.
// Decoders accept exactly this version and reject anything newer —
// the trailer is optional, so a peer that cannot parse it degrades to
// "no subtree", never to a broken round.
const spanSummaryVersion = 1

// maxSummaryDepth bounds tier nesting in a decoded trailer; real
// federations are 2–4 tiers, anything deeper is a hostile frame.
const maxSummaryDepth = 16

// maxSummaryClients bounds per-span client records in a decoded
// trailer (an edge folds at most a few thousand direct members).
const maxSummaryClients = 1 << 20

// ErrBadSummary reports an undecodable span-summary trailer.
var ErrBadSummary = errors.New("obs: bad span summary")

// EncodeSpanSummary renders s as a versioned binary trailer blob.
func EncodeSpanSummary(s *SpanSummary) []byte {
	return appendSummary(make([]byte, 0, 256), s, 0)
}

func appendSummary(dst []byte, s *SpanSummary, depth int) []byte {
	if depth >= maxSummaryDepth {
		return dst
	}
	dst = append(dst, spanSummaryVersion)
	dst = appendString(dst, s.Span.Tier)
	dst = appendString(dst, s.Span.TraceID)
	dst = binary.AppendUvarint(dst, uint64(s.Span.Round))
	// Zero/ancient Start times (UnixNano < 0) clamp to the epoch —
	// appendNs keeps the uvarint encodable.
	dst = appendNs(dst, s.Span.Start.UnixNano())
	dst = appendNs(dst, s.Span.TotalNs)
	dst = appendNs(dst, s.Span.BroadcastNs)
	dst = appendNs(dst, s.Span.GatherNs)
	dst = appendNs(dst, s.Span.DecodeFoldNs)
	dst = appendNs(dst, s.Span.CommitNs)
	dst = appendNs(dst, s.Span.BytesUp)
	dst = appendNs(dst, s.Span.BytesDown)
	dst = binary.AppendUvarint(dst, uint64(s.Span.Sampled))
	dst = binary.AppendUvarint(dst, uint64(s.Span.Committed))
	dst = binary.AppendUvarint(dst, uint64(s.Span.Dropped))
	dst = binary.BigEndian.AppendUint64(dst, 0) // reserved: a round's error bound, no longer scheduled
	dst = binary.AppendUvarint(dst, uint64(len(s.Span.Clients)))
	for _, c := range s.Span.Clients {
		dst = appendString(dst, c.ID)
		dst = appendString(dst, c.Outcome)
		dst = appendNs(dst, c.BytesUp)
		dst = appendNs(dst, c.BytesDown)
		dst = appendNs(dst, c.TimeNs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Children)))
	for _, ch := range s.Children {
		dst = appendString(dst, ch.ID)
		dst = appendSummary(dst, ch.Sum, depth+1)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendNs encodes a non-negative int64 as a uvarint, clamping
// negatives (which only arise from clock anomalies) to zero.
func appendNs(dst []byte, v int64) []byte {
	if v < 0 {
		v = 0
	}
	return binary.AppendUvarint(dst, uint64(v))
}

// DecodeSpanSummary parses a trailer blob produced by
// EncodeSpanSummary. Unknown versions return ErrBadSummary — callers
// treat that as "no summary", keeping mixed-version federations live.
func DecodeSpanSummary(blob []byte) (*SpanSummary, error) {
	r := &summaryReader{buf: blob}
	s := r.summary(0)
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// summaryReader is a cursor with sticky error handling over a trailer
// blob.
type summaryReader struct {
	buf []byte
	pos int
	err error
}

func (r *summaryReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadSummary, what)
	}
}

func (r *summaryReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *summaryReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *summaryReader) string(maxLen uint64) string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxLen || int(n) > len(r.buf)-r.pos {
		r.fail("string length")
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *summaryReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.pos < 8 {
		r.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *summaryReader) ns() int64 {
	v := r.uvarint()
	if v > math.MaxInt64 {
		r.fail("ns overflow")
		return 0
	}
	return int64(v)
}

func (r *summaryReader) summary(depth int) *SpanSummary {
	if depth >= maxSummaryDepth {
		r.fail("nesting too deep")
		return nil
	}
	if v := r.byte(); r.err == nil && v != spanSummaryVersion {
		r.fail(fmt.Sprintf("unsupported version %d", v))
	}
	s := &SpanSummary{}
	s.Span.Tier = r.string(64)
	s.Span.TraceID = r.string(64)
	s.Span.Round = int(r.uvarint())
	s.Span.Start = time.Unix(0, r.ns())
	s.Span.TotalNs = r.ns()
	s.Span.BroadcastNs = r.ns()
	s.Span.GatherNs = r.ns()
	s.Span.DecodeFoldNs = r.ns()
	s.Span.CommitNs = r.ns()
	s.Span.BytesUp = r.ns()
	s.Span.BytesDown = r.ns()
	s.Span.Sampled = int(r.uvarint())
	s.Span.Committed = int(r.uvarint())
	s.Span.Dropped = int(r.uvarint())
	r.u64() // the reserved bound slot
	nClients := r.uvarint()
	if r.err != nil {
		return nil
	}
	if nClients > maxSummaryClients {
		r.fail("client count")
		return nil
	}
	s.Span.Clients = make([]SpanClient, 0, min64(nClients, 1024))
	for i := uint64(0); i < nClients && r.err == nil; i++ {
		var c SpanClient
		c.ID = r.string(4096)
		c.Outcome = r.string(64)
		c.BytesUp = r.ns()
		c.BytesDown = r.ns()
		c.TimeNs = r.ns()
		s.Span.Clients = append(s.Span.Clients, c)
	}
	nChildren := r.uvarint()
	if r.err != nil {
		return nil
	}
	if nChildren > maxSummaryClients {
		r.fail("child count")
		return nil
	}
	for i := uint64(0); i < nChildren && r.err == nil; i++ {
		id := r.string(4096)
		child := r.summary(depth + 1)
		if r.err == nil {
			s.Children = append(s.Children, ChildSummary{ID: id, Sum: child})
		}
	}
	if r.err != nil {
		return nil
	}
	return s
}

func min64(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}
