// Package fedsz is the public API of FedSZ-Go, a from-scratch Go
// reproduction of "FedSZ: Leveraging Error-Bounded Lossy Compression
// for Federated Learning Communications" (ICDCS 2024).
//
// FedSZ shrinks federated-learning client updates by partitioning a
// model state dict into large weight tensors — compressed with an
// error-bounded lossy compressor (SZ2 by default) under a relative
// error bound — and small metadata entries, compressed losslessly
// (blosc-lz), framed into one self-describing bitstream:
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
// # Compressors
//
// WithCompressor selects any registered compressor by name: the four
// error-bounded lossy compressors of the paper's Table I (sz2, sz3,
// szx, zfp), threshold top-k sparsification (topk), bound-derived
// QSGD-style quantization (qsgd), the gradient-aware predictor (pred)
// and rand-k sparsification at a tenth of each tensor (randk, which
// does not honour the bound). Frames record the compressor's name, so
// a receiver decodes them with no configuration.
//
// # Concurrency
//
// Per-tensor compression fans across runtime.GOMAXPROCS(0) workers,
// and sections are assembled in deterministic entry order, so the
// bitstream is byte-identical on any core count; only wall-clock
// compression time (the paper's tC) changes.
//
// Everything the API hands out is safe for concurrent use once
// constructed: a Codec from NewCodec may encode updates from many
// client goroutines at once, and Compress/Decompress may be called
// freely from multiple goroutines. Mutable values the caller owns
// (StateDict) are not synchronized — do not mutate them during a
// concurrent encode.
//
// # Simulation
//
// RunSim drives synchronous FedAvg rounds on a virtual clock over
// heterogeneous client populations (PaperMix, EdgeMix), flat or behind
// regional edges; cmd/fedszserver, cmd/fedszedge and cmd/fedszclient
// run the same round engine over TCP.
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

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
)

// Re-exported types. Aliases keep the internal packages private while
// letting downstream code name every value the API returns.
type (
	// StateDict is an insertion-ordered model state dictionary.
	StateDict = model.StateDict
	// Arch is an architecture specification.
	Arch = model.Arch
	// Stats reports one compression call's accounting.
	Stats = core.Stats
	// Decision evaluates the paper's Eqn. 1 compress-or-not rule.
	Decision = core.Decision
	// Codec streams state dicts to and from wire bytes: Name,
	// EncodeTo and DecodeFrom.
	Codec = fl.Codec
	// PlainCodec is the uncompressed-update baseline codec.
	PlainCodec = fl.PlainCodec
	// SimConfig parameterizes an in-process federated simulation.
	SimConfig = fl.SimConfig
	// SimResult is a federated simulation trace.
	SimResult = fl.SimResult
	// Link models a constrained network link.
	Link = netsim.Link
	// Population samples heterogeneous client profiles.
	Population = netsim.Profile
	// PartialWireOptions controls the partial-sum frames an edge
	// forwards upstream (CRC32C stamping, optional lossless packing).
	PartialWireOptions = hier.WireOptions
)

// DefaultThreshold is Algorithm 1's partition threshold: weight
// tensors with more elements take the lossy path.
const DefaultThreshold = core.DefaultThreshold

// Option customizes the FedSZ pipeline.
type Option func(*core.Config)

// WithCompressor selects the lossy compressor by registered name:
// "sz2" (default), "sz3", "szx", "zfp", "szx-artifact", "topk",
// "qsgd", "pred" or "randk".
func WithCompressor(name string) Option {
	return func(c *core.Config) { c.Lossy = name }
}

// WithRelBound sets a range-relative error bound (the paper's REL
// mode; 1e-2 is the recommended setting).
func WithRelBound(bound float64) Option {
	return func(c *core.Config) { c.Bound = lossy.RelBound(bound) }
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
// configuration is needed: frames are self-describing, and each
// section's compressor resolves by the name recorded in the frame.
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

// MarshalStateDictTo streams the uncompressed-update wire format to w
// entry by entry, never materializing the full image.
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

// PaperMix is the heterogeneous client population used by the scale
// experiment: the paper's 10/100/500 Mbps bandwidths as deployment
// strata plus a slow-device straggler tail.
func PaperMix() Population { return netsim.PaperMix() }

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

// Mbps converts megabits per second to the bits-per-second unit used
// by Link and Decision.
func Mbps(x float64) float64 { return netsim.Mbps(x) }
