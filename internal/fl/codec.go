// Package fl implements the federated-learning runtime the paper
// evaluates FedSZ inside: FedAvg aggregation (McMahan et al., 2017),
// local SGD clients, pluggable update codecs and an in-process
// simulation harness with an analytic network model. The real-network
// path lives in package transport.
package fl

import (
	"fmt"
	"io"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
)

// UpdateStats accounts for one encoded client update.
type UpdateStats struct {
	OriginalBytes   int64
	CompressedBytes int64
	EncodeTime      time.Duration
	DecodeTime      time.Duration // filled by the receiver
	// WholeImage says the encoded frame is a stateless, error-bounded
	// (or exact) image of the whole dict: any peer decodes it with no
	// reference and no history, and every value is within the codec's
	// bound of the one encoded. It is what lets a frame carry a global
	// model down the tree, and it travels here, on the base interface's
	// return value, so that a wrapper which forwards EncodeTo forwards
	// the answer too. A FedSZCodec on a bounded family sets it; an
	// unbounded (sparsifying, fixed-width) encoding never does.
	WholeImage bool
}

// Ratio returns the update's compression ratio.
func (s UpdateStats) Ratio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.OriginalBytes) / float64(s.CompressedBytes)
}

// Codec converts model state dicts to and from wire bytes. EncodeTo
// moves one update through an io.Writer as a self-delimiting stream,
// incrementally, which is what lets the transport pipeline compression
// behind transmission; a caller that wants the update in memory
// encodes into a bytes.Buffer. DecodeFrom consumes exactly one
// update's worth of the stream (so protocol traffic may follow it).
//
// DecodeFrom implementations read byte-at-a-time headers; pass a
// reader that implements io.ByteReader (e.g. *bufio.Reader) to avoid
// an internal buffered wrapper that may read past the update.
type Codec interface {
	Name() string
	EncodeTo(w io.Writer, sd *model.StateDict) (UpdateStats, error)
	DecodeFrom(r io.Reader) (*model.StateDict, error)
}

// BoundAware, PriorAware and ReferenceAware are the hooks of deleted
// runtime planes (per-round bound directives, fleet-wide plan priors
// and encoding against the last broadcast global). No codec in this
// module implements them and no runtime calls them; they are declared
// only because the benchmark's tracing wrapper asserts them, and
// ROADMAP item 1a removes them with that assertion.
type BoundAware interface {
	SetRoundBound(bound float64)
}

// PriorAware: see BoundAware.
type PriorAware interface {
	ExportPriorBytes() []byte
	ApplyPriorBytes(raw []byte) error
}

// ReferenceAware: see BoundAware.
type ReferenceAware interface {
	SetReference(ref *model.StateDict)
}

// EntryStreamer is the streaming-aggregation decode contract: codecs
// that implement it can decode one update from r directly into emit,
// entry by entry, without ever materializing the client's full state
// dict — what lets the orchestrator's sharded aggregator fold tensor
// sections into weighted sums as they come off each connection.
// Entries may be emitted out of order and from concurrent decode
// workers; emit must be safe for concurrent use. Stream position on
// return matches DecodeFrom (exactly one update consumed).
//
// Tensors handed to emit are lent: an entry whose Redo is set lives in
// scratch the decoder reuses, so emit reads (or clones) Tensor before
// it returns and keeps at most Redo, which reproduces the same values
// from the entry's compressed section. Entries without Redo are the
// consumer's to keep.
type EntryStreamer interface {
	DecodeEntriesFrom(r io.Reader, emit func(model.Entry) error) error
}

// InPlaceDecoder is implemented by codecs that can decode a frame into
// a dict the receiver already holds — a leaf's previous global — under
// core.DecompressInto's contract: matching entries are overwritten in
// place, anything else is allocated, and on error dst is left partly
// overwritten.
type InPlaceDecoder interface {
	DecodeInto(r io.Reader, dst *model.StateDict) (*model.StateDict, error)
}

// DecodeInto decodes one frame from r through c, into dst's storage
// when c can (and dst is non-nil); any other codec allocates the dict
// as DecodeFrom does. The decoded values are the same either way.
func DecodeInto(c Codec, r io.Reader, dst *model.StateDict) (*model.StateDict, error) {
	if ip, ok := c.(InPlaceDecoder); ok && dst != nil {
		return ip.DecodeInto(r, dst)
	}
	return c.DecodeFrom(r)
}

// InPlaceEntryStreamer is implemented by codecs whose streamed entries
// can land in a dict the receiver holds, under DecodeEntriesInto's
// contract.
type InPlaceEntryStreamer interface {
	DecodeEntriesInto(r io.Reader, dst *model.StateDict, emit func(model.Entry) error) (*model.StateDict, error)
}

// DecodeEntriesInto is DecodeEntries for a receiver that holds a dict to
// land updates in. A codec implementing InPlaceEntryStreamer decodes each
// entry into dst's storage where name, dtype and shape match (allocating
// it otherwise), emits it from there as an owned entry, and returns the
// dict now holding the update: the dst to pass next time. The receiver
// owns that storage and must not decode into it again while anything it
// emitted is still referenced — an open Contributor keeps its folded
// tensors until the contribution settles. Every other codec decodes as
// DecodeEntries does, from the same bytes, and returns a nil dict: it
// has none to offer (FedSZ lends its own scratch).
func DecodeEntriesInto(c Codec, r io.Reader, dst *model.StateDict, emit func(model.Entry) error) (*model.StateDict, error) {
	if es, ok := c.(InPlaceEntryStreamer); ok {
		return es.DecodeEntriesInto(r, dst, emit)
	}
	return nil, DecodeEntries(c, r, emit)
}

// DecodeEntries decodes one update from r through c, delivering
// entries to emit. Codecs implementing EntryStreamer stream them as
// sections decode; any other codec falls back to DecodeFrom and
// replays the materialized entries — same contract, without the
// memory saving.
func DecodeEntries(c Codec, r io.Reader, emit func(model.Entry) error) error {
	if es, ok := c.(EntryStreamer); ok {
		return es.DecodeEntriesFrom(r, emit)
	}
	sd, err := c.DecodeFrom(r)
	if err != nil {
		return err
	}
	for _, e := range sd.Entries() {
		if err := emit(e); err != nil {
			return err
		}
	}
	return nil
}

// PlainCodec serializes updates without compression — the paper's
// "Uncompressed" baseline.
type PlainCodec struct{}

// Name implements Codec.
func (PlainCodec) Name() string { return "plain" }

// EncodeTo implements Codec, streaming the serialization entry by
// entry so the full wire image is never materialized.
func (PlainCodec) EncodeTo(w io.Writer, sd *model.StateDict) (UpdateStats, error) {
	start := time.Now()
	cw := &countingWriter{w: w}
	if err := core.MarshalStateDictTo(cw, sd); err != nil {
		return UpdateStats{}, err
	}
	return UpdateStats{
		OriginalBytes:   cw.n,
		CompressedBytes: cw.n,
		EncodeTime:      time.Since(start),
	}, nil
}

// DecodeFrom implements Codec.
func (PlainCodec) DecodeFrom(r io.Reader) (*model.StateDict, error) {
	return core.UnmarshalStateDictFrom(r)
}

// DecodeEntriesFrom implements EntryStreamer: each entry is emitted as
// soon as its payload is read off the stream.
func (PlainCodec) DecodeEntriesFrom(r io.Reader, emit func(model.Entry) error) error {
	return core.UnmarshalStateDictEntriesFrom(r, emit)
}

// DecodeEntriesInto implements InPlaceEntryStreamer: each entry is read
// into dst's storage when it matches and emitted from there.
func (PlainCodec) DecodeEntriesInto(r io.Reader, dst *model.StateDict, emit func(model.Entry) error) (*model.StateDict, error) {
	return core.UnmarshalStateDictEntriesInto(r, dst, emit)
}

// countingWriter counts bytes on their way to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// FedSZCodec wraps the FedSZ pipeline as an update codec. It is
// immutable after construction and safe for concurrent use: the
// simulation harness encodes every sampled client's update from its
// own goroutine through one shared codec, and each EncodeTo/DecodeFrom
// internally fans per-tensor work across cfg.Parallelism workers.
type FedSZCodec struct {
	pipeline *core.Pipeline
	// wholeImage is UpdateStats.WholeImage for every frame this codec
	// encodes: one registered compressor that honours the bound.
	wholeImage bool
}

// NewFedSZCodec builds a codec from a core pipeline config.
func NewFedSZCodec(cfg core.Config) (*FedSZCodec, error) {
	p, err := core.NewPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("fl: %w", err)
	}
	cfg = p.Config()
	fam, err := lossy.FamilyByName(cfg.Lossy)
	return &FedSZCodec{
		pipeline:   p,
		wholeImage: err == nil && fam.Bounded,
	}, nil
}

// Name implements Codec.
func (c *FedSZCodec) Name() string {
	return "fedsz-" + c.pipeline.Config().Lossy
}

// EncodeTo implements Codec: the frame streams to w section by
// section, each tensor's section leaving as soon as it finishes
// compressing, so on a network writer tC hides behind transmission.
// EncodeTime therefore covers the whole streamed encode, including
// time spent blocked on w.
func (c *FedSZCodec) EncodeTo(w io.Writer, sd *model.StateDict) (UpdateStats, error) {
	st, err := c.pipeline.CompressTo(w, sd)
	if err != nil {
		return UpdateStats{}, err
	}
	return UpdateStats{
		OriginalBytes:   st.OriginalBytes,
		CompressedBytes: st.CompressedBytes,
		EncodeTime:      st.CompressTime,
		WholeImage:      c.wholeImage,
	}, nil
}

// DecodeFrom implements Codec, decompressing each tensor as its
// section arrives.
func (c *FedSZCodec) DecodeFrom(r io.Reader) (*model.StateDict, error) {
	return core.DecompressFrom(r, c.pipeline.Config().Parallelism)
}

// DecodeInto implements InPlaceDecoder: each tensor reconstructs into
// the storage dst holds for it.
func (c *FedSZCodec) DecodeInto(r io.Reader, dst *model.StateDict) (*model.StateDict, error) {
	return core.DecompressInto(r, c.pipeline.Config().Parallelism, dst)
}

// DecodeEntriesFrom implements EntryStreamer: each tensor is emitted
// the moment its frame section finishes decompressing, possibly from
// concurrent decode workers.
func (c *FedSZCodec) DecodeEntriesFrom(r io.Reader, emit func(model.Entry) error) error {
	return core.DecompressEntriesFrom(r, c.pipeline.Config().Parallelism, emit)
}
