// Package fedsz is the public API of FedSZ-Go, a from-scratch Go
// reproduction of "FedSZ: Leveraging Error-Bounded Lossy Compression
// for Federated Learning Communications" (ICDCS 2024).
//
// FedSZ shrinks federated-learning client updates by partitioning a
// model state dict into large weight tensors — compressed with an
// error-bounded lossy compressor (SZ2 by default) under a relative
// error bound — and small metadata entries, compressed losslessly
// (blosc-lz by default), framed into one self-describing bitstream:
//
//	sd := fedsz.BuildStateDict(fedsz.MobileNetV2(1), 42)
//	buf, stats, err := fedsz.Compress(sd, fedsz.WithRelBound(1e-2))
//	...
//	restored, err := fedsz.Decompress(buf)
//
// # Streaming
//
// Encoder and Decoder are the streaming counterparts of Compress and
// Decompress: an Encoder pushes each tensor's frame section onto its
// io.Writer while the next tensor is still compressing, and a Decoder
// decompresses sections as they arrive, so over a network compression
// time hides behind transmission time instead of preceding it (the
// system-level composition of the paper's Eqn. 1). Frames are
// self-delimiting — several may share a stream — and an Encoder
// writing to a buffer emits bytes identical to Compress, so the two
// APIs mix freely:
//
//	enc, err := fedsz.NewEncoder(conn, fedsz.WithRelBound(1e-2))
//	stats, err := enc.Encode(update)
//	...
//	restored, err := fedsz.NewDecoder(conn).Decode()
//
// # Compressor families
//
// Every compression technique the system knows — the four
// error-bounded lossy compressors (sz2/sz3/szx/zfp), top-k and rand-k
// sparsification, QSGD-style quantization, and the gradient-aware
// predictor — implements one CompressorFamily contract and lives in a
// single typed registry. A family exposes a parameter grid of
// FamilySetting values (sparsification fractions, quantizer widths;
// the zero Setting is the bound-guaranteed default) and constructs a
// concrete compressor per setting. RegisterFamily plugs new families
// in; Families lists them; frames recording a family's name decode
// anywhere the registration ran; SingleFamily wraps a bare
// LossyCompressor factory as a one-setting family. RegisterLossless
// handles the metadata codecs.
//
// # Error feedback
//
// The sparsifying and quantizing families have grid settings that do
// not honour the error bound (a fixed sparsity budget keeps its
// budget, not the bound). WithErrorFeedback pairs such settings with
// a per-client residual accumulator: whatever one frame's compression
// dropped is added back into the next frame's tensors before
// compression, so the signal arrives late rather than never. One
// ErrorFeedback per logical client — NewResidualStore manages a
// keyed set of them server- or fleet-side, with Withdraw wired to
// the orchestrator's OnDrop hook.
//
// # Concurrency
//
// Per-tensor compression is embarrassingly parallel, and the pipeline
// exploits that: Compress fans the per-tensor lossy passes and the
// independent lossless metadata pass across a worker pool sized by
// WithParallelism (default runtime.GOMAXPROCS(0)), and Decompress
// mirrors the fan-out. Sections are assembled in deterministic entry
// order, so the bitstream is byte-identical at every parallelism level;
// only wall-clock compression time (the paper's tC) changes.
//
// Everything the API hands out is safe for concurrent use once
// constructed: a Codec from NewCodec may encode updates from many
// client goroutines at once, and Compress/Decompress may be called
// freely from multiple goroutines. Mutable values the caller owns
// (StateDict, Tensor) are not synchronized — do not mutate them during
// a concurrent encode.
//
// # Orchestration
//
// The orchestration layer scales the federation past the paper's
// four lock-step clients: NewCoordinator coordinates dynamic
// join/leave, per-round sampling with over-provisioning, straggler
// deadlines and synchronous FedAvg rounds, folding decoded tensor
// entries into the streaming sharded Aggregator as they come off each
// connection — byte-identical to sequential FedAvg, without holding
// every client's decoded update. RunSim drives it on a virtual clock
// over heterogeneous client populations (PaperMix), flat or behind
// regional edges; cmd/fedszserver runs it over TCP.
//
// The packages under internal/ implement the full system: the four
// error-bounded compressors (SZ2, SZ3, SZx, ZFP), the lossless suite,
// the model and training substrates, the FedAvg runtime with simulated
// and real (TCP) transports plus the orchestration subsystem, and the
// benchmark harness that regenerates every table and figure of the
// paper (cmd/fedszbench; see the README's "Reproducing the paper").
package fedsz

import (
	"bufio"
	"io"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/orchestrator"
	"fedsz/internal/tensor"
	"fedsz/internal/transport"
)

// Re-exported types. Aliases keep the internal packages private while
// letting downstream code name every value the API returns.
type (
	// StateDict is an insertion-ordered model state dictionary.
	StateDict = model.StateDict
	// Entry is one state-dict item.
	Entry = model.Entry
	// Tensor is a dense float32 tensor.
	Tensor = tensor.Tensor
	// Arch is an architecture specification.
	Arch = model.Arch
	// Stats reports one compression call's accounting.
	Stats = core.Stats
	// Decision evaluates the paper's Eqn. 1 compress-or-not rule.
	Decision = core.Decision
	// Codec streams state dicts to and from wire bytes: Name,
	// EncodeTo and DecodeFrom.
	Codec = fl.Codec
	// UpdateStats accounts for one encoded client update.
	UpdateStats = fl.UpdateStats
	// SimConfig parameterizes an in-process federated simulation.
	SimConfig = fl.SimConfig
	// SimResult is a federated simulation trace.
	SimResult = fl.SimResult
	// Link models a constrained network link.
	Link = netsim.Link
	// DatasetSpec describes a synthetic dataset family.
	DatasetSpec = dataset.Spec
)

// PlainCodec is the uncompressed-update baseline codec.
type PlainCodec = fl.PlainCodec

// NewDeltaCodec transmits client−global deltas through the inner
// codec. The federation runtimes keep its reference in sync.
func NewDeltaCodec(inner Codec) Codec { return fl.NewDeltaCodec(inner) }

// Default pipeline parameters (paper §VII-A recommendation).
const (
	// DefaultBound is the recommended relative error bound (1e-2).
	DefaultBound = core.DefaultBound
	// DefaultThreshold is Algorithm 1's partition threshold.
	DefaultThreshold = core.DefaultThreshold
)

// Option customizes the FedSZ pipeline.
type Option func(*core.Config)

// WithCompressor selects the lossy compressor: "sz2" (default), "sz3",
// "szx", "szx-artifact" or "zfp".
func WithCompressor(name string) Option {
	return func(c *core.Config) { c.Lossy = name }
}

// WithRelBound sets a range-relative error bound (the paper's REL
// mode; 1e-2 is the recommended setting).
func WithRelBound(bound float64) Option {
	return func(c *core.Config) { c.Bound = lossy.RelBound(bound) }
}

// WithAbsBound sets an absolute error bound.
func WithAbsBound(bound float64) Option {
	return func(c *core.Config) { c.Bound = lossy.AbsBound(bound) }
}

// WithThreshold overrides the Algorithm 1 partition threshold
// (elements).
func WithThreshold(elements int) Option {
	return func(c *core.Config) { c.Threshold = elements }
}

// WithLossless selects the metadata codec: "blosclz" (default),
// "zlib", "gzip", "zstdlike" or "xzlike".
func WithLossless(name string) Option {
	return func(c *core.Config) { c.Lossless = name }
}

// WithParallelism caps the worker pool that fans per-tensor compression
// (and the independent metadata pass) across cores. The default, 0,
// selects runtime.GOMAXPROCS(0); 1 forces the serial path. The output
// bitstream is byte-identical at every setting, so the knob trades only
// wall-clock tC (paper Eqn. 1) against CPU occupancy.
func WithParallelism(n int) Option {
	return func(c *core.Config) { c.Parallelism = n }
}

// WithChecksum emits checked frames: a CRC32C trailer after the header
// and after every tensor section, verified before any data is handed
// to the aggregation path, so a bit flip in transit surfaces as a
// typed corrupt-frame error instead of silently poisoning the global
// model. Checked frames are self-describing — receivers need no
// matching option — but legacy decoders reject them, so enable it
// fleet-wide. Costs 4 bytes per section plus one CRC pass.
func WithChecksum() Option {
	return func(c *core.Config) { c.Checksum = true }
}

func buildConfig(opts []Option) core.Config {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Compress encodes sd into a FedSZ bitstream.
func Compress(sd *StateDict, opts ...Option) ([]byte, Stats, error) {
	p, err := core.NewPipeline(buildConfig(opts))
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Compress(sd)
}

// Decompress decodes a FedSZ bitstream. No configuration is needed:
// the bitstream is self-describing.
func Decompress(buf []byte) (*StateDict, error) {
	return core.Decompress(buf)
}

// An Encoder streams FedSZ frames to an io.Writer. Each Encode call
// emits one self-describing frame incrementally: the header goes out
// immediately and every tensor's section follows as soon as that
// tensor finishes compressing, so when w is a network connection,
// compression time (the paper's tC in Eqn. 1) hides behind
// transmission time instead of preceding it. The bytes written are
// exactly what Compress would return for the same options, so either
// end of a connection may mix the buffer and streaming APIs freely.
//
// An Encoder is safe for use from one goroutine at a time (frames
// would interleave otherwise); construct one Encoder per stream.
type Encoder struct {
	p *core.Pipeline
	w io.Writer
}

// NewEncoder returns an Encoder writing frames to w, configured with
// the same options Compress accepts.
func NewEncoder(w io.Writer, opts ...Option) (*Encoder, error) {
	p, err := core.NewPipeline(buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Encoder{p: p, w: w}, nil
}

// Encode compresses sd and streams its frame to the writer. The
// caller must not mutate sd while the call is in flight.
func (e *Encoder) Encode(sd *StateDict) (Stats, error) {
	return e.p.CompressTo(e.w, sd)
}

// A Decoder reads FedSZ frames from an io.Reader, decompressing each
// tensor as its section arrives so decode work overlaps reception. No
// configuration is needed: frames are self-describing, and compressors
// plugged in through RegisterFamily/RegisterLossless resolve by the
// name recorded in the frame.
//
// The Decoder reads exactly one frame per Decode call (no readahead
// beyond its own buffering), so successive frames — or other protocol
// traffic parsed through the same Decoder-owned reader — may follow on
// one stream. Decode returns io.EOF once the stream is exhausted.
type Decoder struct {
	r io.Reader
}

// NewDecoder returns a Decoder reading frames from r. If r does not
// implement io.ByteReader it is wrapped in a buffered reader, which
// may read ahead of the current frame; pass a *bufio.Reader you own to
// interleave other reads on the same stream.
func NewDecoder(r io.Reader) *Decoder {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	return &Decoder{r: r}
}

// Decode reads and decompresses the next frame from the stream.
func (d *Decoder) Decode() (*StateDict, error) {
	return core.DecompressFrom(d.r, 0)
}

// NewCodec returns a federated-learning update codec backed by the
// FedSZ pipeline, for use with RunSim or the transport server.
func NewCodec(opts ...Option) (Codec, error) {
	return fl.NewFedSZCodec(buildConfig(opts))
}

// Compressors lists the available lossy compressor names: the
// built-in suite plus any KindEBLC family plugged in through
// RegisterFamily.
func Compressors() []string { return core.LossyNames() }

// LosslessCodecs lists the available lossless codec names: the
// built-in suite plus anything plugged in through RegisterLossless.
func LosslessCodecs() []string { return lossless.Names() }

// The codec registry. The five lossless codecs and four error-bounded
// compressors of the paper's Tables I-II self-register at init;
// RegisterFamily and RegisterLossless let downstream code plug additional
// implementations in — e.g. a gradient-aware error-bounded compressor
// — without touching internal packages. A registered name works
// everywhere a built-in name does: WithCompressor/WithLossless select
// it, and Decompress/Decoder resolve it from the name recorded in the
// self-describing frame.

// LossyCompressor is the error-bounded lossy compressor contract: 1-D
// float32 in, self-describing buffer out, every value reproduced
// within the absolute bound resolved from LossyParams.
type LossyCompressor = lossy.Compressor

// LossyParams is the error-bound specification passed to a
// LossyCompressor (absolute or range-relative mode).
type LossyParams = lossy.Params

// LosslessCodec is the lossless byte-compressor contract used for the
// metadata section.
type LosslessCodec = lossless.Codec

// RegisterLossless makes factory available under name to WithLossless
// and to frame decoding. Registering a duplicate or empty name is an
// error; register once, typically from init.
func RegisterLossless(name string, factory func() LosslessCodec) error {
	return lossless.Register(name, factory)
}

// The compressor-family registry. A CompressorFamily generalizes a
// single LossyCompressor to a technique with a parameter grid: the
// error-bounded Table I compressors expose just their default, while
// the sparsifying ("topk", "randk") and quantizing ("qsgd") families
// expose fraction/width settings — some of which trade the error-bound
// guarantee for a fixed byte budget (pair those with WithErrorFeedback).
// Every built-in family self-registers.

// CompressorFamily is the registry contract one compression technique
// implements: a name (recorded in frames), a kind, a parameter grid,
// a per-setting bound guarantee, and a compressor constructor.
// SingleFamily builds one from a bare LossyCompressor factory.
type CompressorFamily = lossy.Family

// FamilySetting is one point on a family's parameter grid: a sparsity
// fraction and/or a quantizer bit width. The zero value is the
// family's bound-guaranteed default.
type FamilySetting = lossy.Setting

// Family kind labels, reported by CompressorFamily.Kind.
const (
	// KindEBLC marks error-bounded lossy compressors (Table I).
	KindEBLC = lossy.KindEBLC
	// KindSparse marks sparsifying families (topk, randk).
	KindSparse = lossy.KindSparse
	// KindQuant marks quantizing families (qsgd).
	KindQuant = lossy.KindQuant
	// KindPred marks prediction-based gradient-aware families (pred).
	KindPred = lossy.KindPred
)

// RegisterFamily adds f to the registry: WithCompressor selects it by
// name, and frames recording its name decode anywhere the registration
// ran. Registering a duplicate or empty name is an error; register
// once, typically from init.
func RegisterFamily(f CompressorFamily) error {
	return lossy.RegisterFamily(f)
}

// SingleFamily returns an error-bounded (KindEBLC) family with one
// setting, the zero FamilySetting, whose compressor factory builds;
// bounded says whether that compressor honours the error bound. Pass
// it to RegisterFamily to plug in a plain LossyCompressor:
//
//	fedsz.RegisterFamily(fedsz.SingleFamily("my-eblc", true, newMyEBLC))
func SingleFamily(name string, bounded bool, factory func() LossyCompressor) CompressorFamily {
	return lossy.NewSingle(name, bounded, factory)
}

// FamilyByName resolves a registered family — the typed counterpart
// of the name strings in frames and Families.
func FamilyByName(name string) (CompressorFamily, error) {
	return lossy.FamilyByName(name)
}

// Families lists every canonical registered compressor family across
// all kinds: the Table I suite, "topk", "randk", "qsgd", "pred", and
// anything plugged in through RegisterFamily. Compressors remains the
// EBLC-only list.
func Families() []string { return core.FamilyNames() }

// FamilyGrid returns a family's parameter grid (at least the zero
// default setting), for tooling that enumerates a family's candidate
// settings.
func FamilyGrid(f CompressorFamily) []FamilySetting { return lossy.GridOf(f) }

// Error feedback: per-client residual state that re-injects what one
// frame's compression dropped into the next frame's tensors. It is
// what keeps the unbounded family settings (fractional top-k/rand-k,
// fixed-width QSGD) convergent — the dropped signal arrives late
// instead of never.

// ErrorFeedback accumulates one client's per-tensor residuals. Attach
// it to a pipeline with WithErrorFeedback; never share one across
// clients (each residual is measured against that client's own
// updates).
type ErrorFeedback = core.Feedback

// NewErrorFeedback returns an empty per-client residual accumulator.
func NewErrorFeedback() *ErrorFeedback { return core.NewFeedback() }

// ResidualStore keys ErrorFeedback state by client id for a fleet of
// encoders. Wire Withdraw to OrchestratorConfig.OnDrop so a client
// whose update the coordinator discarded does not replay a residual
// measured against a model the server never installed.
type ResidualStore = core.ResidualStore

// NewResidualStore returns an empty keyed residual store.
func NewResidualStore() *ResidualStore { return core.NewResidualStore() }

// WithErrorFeedback attaches a per-client residual accumulator to the
// pipeline: every lossy-path tensor is compressed with its
// accumulated residual added back, and the residual the encoded
// payload leaves behind is stored for the next frame. Encoding
// becomes stateful — construct one pipeline (or Codec) per client. A
// nil feedback leaves the pipeline stateless.
func WithErrorFeedback(fb *ErrorFeedback) Option {
	return func(c *core.Config) { c.Feedback = fb }
}

// Architecture builders (torchvision-shape-exact; div > 1 shrinks
// widths for fast experiments).

// AlexNet returns the AlexNet specification (61.1M parameters at
// div=1).
func AlexNet(div int) Arch { return model.AlexNet(div) }

// ResNet50 returns the ResNet-50 specification (25.6M parameters at
// div=1).
func ResNet50(div int) Arch { return model.ResNet50(div) }

// MobileNetV2 returns the MobileNetV2 specification (3.5M parameters
// at div=1).
func MobileNetV2(div int) Arch { return model.MobileNetV2(div) }

// BuildStateDict materializes an architecture with pretrained-like
// weights, deterministically per seed.
func BuildStateDict(a Arch, seed int64) *StateDict {
	return model.BuildStateDict(a, seed)
}

// MarshalStateDict serializes a state dict without compression (the
// uncompressed-update wire format).
func MarshalStateDict(sd *StateDict) ([]byte, error) {
	return core.MarshalStateDict(sd)
}

// UnmarshalStateDict reverses MarshalStateDict.
func UnmarshalStateDict(buf []byte) (*StateDict, error) {
	return core.UnmarshalStateDict(buf)
}

// MarshalStateDictTo streams the uncompressed-update wire format to w
// entry by entry, never materializing the full image; the bytes are
// exactly what MarshalStateDict returns.
func MarshalStateDictTo(w io.Writer, sd *StateDict) error {
	return core.MarshalStateDictTo(w, sd)
}

// UnmarshalStateDictFrom reads one streamed state dict from r (no
// readahead beyond r's own buffering) with bounded allocation on
// untrusted length fields. An empty stream returns io.EOF.
func UnmarshalStateDictFrom(r io.Reader) (*StateDict, error) {
	return core.UnmarshalStateDictFrom(r)
}

// RunSim executes an in-process federated simulation (FedAvg, local
// SGD clients, analytic network model): FedAvg rounds on the flat
// coordinator (Edges == 0) or behind regional edge aggregators, on a
// virtual clock.
func RunSim(cfg SimConfig) (*SimResult, error) { return fl.RunSim(cfg) }

// Orchestration re-exports: the event-driven federated coordination
// subsystem (client registry, per-round sampling with
// over-provisioning, straggler deadlines and sync FedAvg rounds,
// aggregating through the streaming sharded accumulator).
type (
	// Coordinator is the orchestration core: registry, sampler and
	// round state machine.
	Coordinator = orchestrator.Coordinator
	// OrchestratorConfig parameterizes a Coordinator.
	OrchestratorConfig = orchestrator.Config
	// Round is one open synchronous aggregation round.
	Round = orchestrator.Round
	// Contributor is one in-flight streaming client contribution.
	Contributor = orchestrator.Contributor
	// RoundStats accounts one committed aggregation step.
	RoundStats = orchestrator.RoundStats
	// Aggregator is the streaming sharded FedAvg accumulator.
	Aggregator = orchestrator.Aggregator
	// ClientProfile is one simulated client's link/compute profile.
	ClientProfile = netsim.ClientProfile
	// Population samples heterogeneous client profiles.
	Population = netsim.Profile
	// PopulationChoice is one stratum of a heterogeneous Population.
	PopulationChoice = netsim.ProfileChoice
)

// NewCoordinator builds an orchestration coordinator seeded with the
// initial global model.
func NewCoordinator(cfg OrchestratorConfig, initial *StateDict) (*Coordinator, error) {
	return orchestrator.NewCoordinator(cfg, initial)
}

// NewAggregator builds a streaming sharded accumulator shaped like
// ref (shards ≤ 0 selects an automatic shard count). Folding the same
// updates in the same order is byte-identical to sequential FedAvg.
func NewAggregator(ref *StateDict, shards int) *Aggregator {
	return orchestrator.NewAggregator(ref, shards)
}

// PaperMix is the heterogeneous client population used by the scale
// experiment: the paper's 10/100/500 Mbps bandwidths as deployment
// strata plus a slow-device straggler tail.
func PaperMix() Population { return netsim.PaperMix() }

// Hierarchical aggregation re-exports: the regional edge tier that
// folds each region's updates into ONE unnormalized partial sum and
// forwards it upstream, taking a federation's coordinator fan-in from
// the population size to the region count without changing the
// committed model by a single bit.
type (
	// Edge is a regional fold-and-forward aggregator node: it serves a
	// region of clients (or nested edges) on the ordinary transport
	// protocol and participates upstream as a single member.
	Edge = transport.Edge
	// EdgeConfig parameterizes an Edge.
	EdgeConfig = transport.EdgeConfig
	// PartialSum is a region's unnormalized aggregation state
	// (Σ weight·value sums, total weight, update count).
	PartialSum = orchestrator.Partial
	// PartialWireOptions controls partial-sum frames on the wire
	// (CRC32C stamping, optional lossless packing).
	PartialWireOptions = hier.WireOptions
	// HierStats reports a tiered simulation's per-tier outcomes
	// (SimResult.Tier).
	HierStats = fl.HierStats
)

// NewEdge builds a regional edge aggregator. Its Serve folds each
// round's regional updates through the streaming sharded aggregator
// and forwards one partial-sum frame upstream.
func NewEdge(cfg EdgeConfig) (*Edge, error) { return transport.NewEdge(cfg) }

// EncodePartialSum frames a regional partial sum for the wire.
func EncodePartialSum(p *PartialSum, opts PartialWireOptions) ([]byte, error) {
	return hier.EncodePartial(p, opts)
}

// DecodePartialSum reads one partial-sum frame, verifying its CRC32C
// before any content is trusted when the frame is checksummed.
func DecodePartialSum(r io.Reader) (*PartialSum, error) {
	if br, ok := r.(hier.Reader); ok {
		return hier.DecodePartialFrom(br)
	}
	return hier.DecodePartialFrom(bufio.NewReader(r))
}

// EdgeMix is the client→edge population of a hierarchical tier: fast
// local-network strata (campus LAN, 5G cell) with the same compute
// heterogeneity as PaperMix.
func EdgeMix() Population { return netsim.EdgeMix() }

// ContendedWAN divides a link's bandwidth across sharers concurrent
// senders — the edge→core trunk at the round boundary, when every
// region forwards its partial at once.
func ContendedWAN(l Link, sharers int) Link {
	return netsim.ContendedWAN(l, sharers)
}

// Datasets returns the synthetic dataset specs mirroring the paper's
// CIFAR-10 / Fashion-MNIST / Caltech101 tasks.
func Datasets() []DatasetSpec { return dataset.Specs() }

// Mbps converts megabits per second to the bits-per-second unit used
// by Link and Decision.
func Mbps(x float64) float64 { return netsim.Mbps(x) }

// TransferTime models moving bytes over a link of bandwidthBps.
func TransferTime(bytes int64, bandwidthBps float64) time.Duration {
	return core.TransferTime(bytes, bandwidthBps)
}
