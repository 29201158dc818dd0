// Package core implements the FedSZ compression scheme — the paper's
// primary contribution (Algorithm 1, Fig. 1).
//
// A client update (a model state dict) is partitioned into large
// weight tensors, which are compressed with an error-bounded lossy
// compressor under a per-tensor relative bound, and the remaining
// metadata/non-weight entries, which are serialized and compressed
// losslessly (blosc-lz by default). Both parts are framed into a single
// self-describing bitstream for transmission; decompression reverses
// the pipeline and reassembles the state dict in its original order.
//
// # Concurrency
//
// Per-tensor compression is embarrassingly parallel: each entry is
// compressed independently under its own bound, and the lossless
// metadata pass is independent of every tensor. Compress and Decompress
// therefore fan the per-entry work across a worker pool sized by
// Config.Parallelism (default runtime.GOMAXPROCS(0)), assembling the
// sections in deterministic entry order so the bitstream is
// byte-identical at any parallelism level.
//
// A Pipeline is immutable after NewPipeline and safe for concurrent use
// by multiple goroutines, as are all the lossy and lossless codec
// implementations it dispatches to (each Compress/Decompress call
// allocates or pools its own scratch state; codecs hold only
// construction-time configuration).
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
)

// ErrCorrupt reports a malformed FedSZ bitstream.
var ErrCorrupt = errors.New("core: corrupt bitstream")

// ErrCorruptFrame reports a checksummed frame whose stored CRC32C does
// not match the received bytes — the frame was valid when written and
// damaged in flight (bit flip, truncation, torn write), as opposed to
// the structural corruption ErrCorrupt alone covers. It wraps
// ErrCorrupt, so errors.Is(err, ErrCorrupt) matches both.
var ErrCorruptFrame = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

const (
	pipelineMagic = "FDSZ"
	formatVersion = 1
	// formatVersionChecked marks the integrity-checked frame layout:
	// identical to formatVersion except a CRC32C (Castagnoli) trailer
	// follows the header and every section (each lossy tensor and the
	// lossless metadata), computed over that region's bytes excluding
	// the magic+version prefix. Checksums are opt-in (Config.Checksum)
	// so existing frames stay byte-identical; decoders accept both
	// versions and verify checked frames before any payload is decoded
	// or emitted.
	formatVersionChecked = 2

	// DefaultThreshold is Algorithm 1's size threshold: weight-named
	// tensors with more elements than this go through the lossy path.
	DefaultThreshold = 1000

	// DefaultBound is the paper's recommended relative error bound
	// (§VII-A: "we recommend a relative error bound of 1e-2").
	DefaultBound = 1e-2
)

// Config parameterizes the pipeline.
type Config struct {
	// Lossy names the EBLC ("sz2" by default — the paper's winner).
	Lossy string
	// Bound is the error-bound specification applied per tensor.
	// Zero value selects REL 1e-2.
	Bound lossy.Params
	// Threshold is the Algorithm 1 partition threshold (elements).
	// Zero selects DefaultThreshold.
	Threshold int
	// Lossless names the metadata codec ("blosclz" by default).
	Lossless string
	// Parallelism caps the worker pool that fans per-tensor compression
	// (and the independent metadata pass) across cores. Zero selects
	// runtime.GOMAXPROCS(0); 1 forces the serial path. The bitstream is
	// byte-identical at every setting.
	Parallelism int
	// Checksum, when true, emits the integrity-checked frame version:
	// a CRC32C trailer after the header and after every section, so a
	// receiver detects in-flight corruption before folding a single
	// tensor (decode fails with ErrCorruptFrame). Costs 4 bytes per
	// section plus one table-driven CRC pass over the frame; the
	// default (false) keeps the legacy byte-identical format.
	Checksum bool
}

func (c Config) withDefaults() Config {
	if c.Lossy == "" {
		c.Lossy = LossySZ2
	}
	if c.Bound.Mode == 0 {
		c.Bound = lossy.RelBound(DefaultBound)
	}
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	if c.Lossless == "" {
		c.Lossless = lossless.NameBloscLZ
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// Stats reports one compression call's accounting.
type Stats struct {
	OriginalBytes   int64         // serialized uncompressed update size S
	CompressedBytes int64         // bitstream size S′
	LossyInBytes    int64         // bytes entering the lossy path
	LossyOutBytes   int64         // bytes leaving the lossy path
	MetaInBytes     int64         // bytes entering the lossless path
	MetaOutBytes    int64         // bytes leaving the lossless path
	LossyElems      int64         // elements on the lossy path
	TotalElems      int64         // all elements
	NumLossyTensors int           // tensors on the lossy path
	NumMetaEntries  int           // entries on the lossless path
	CompressTime    time.Duration // wall-clock tC
}

// Ratio returns the overall compression ratio S/S′.
func (s Stats) Ratio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.OriginalBytes) / float64(s.CompressedBytes)
}

// LossyFraction returns the fraction of input bytes on the lossy path
// (Table III's "% Lossy Data").
func (s Stats) LossyFraction() float64 {
	total := s.LossyInBytes + s.MetaInBytes
	if total == 0 {
		return 0
	}
	return float64(s.LossyInBytes) / float64(total)
}

// Pipeline is a configured FedSZ compressor. It is immutable after
// NewPipeline and safe for concurrent use: any number of goroutines may
// call Compress and CompressTo on the same Pipeline simultaneously.
type Pipeline struct {
	cfg      Config
	lossyC   lossy.Compressor
	lossless lossless.Codec
}

// NewPipeline validates cfg and constructs the pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	lc, err := LossyByName(cfg.Lossy)
	if err != nil {
		return nil, err
	}
	ll, err := lossless.New(cfg.Lossless)
	if err != nil {
		return nil, err
	}
	if cfg.Bound.Bound <= 0 {
		return nil, fmt.Errorf("core: invalid error bound %v", cfg.Bound.Bound)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", cfg.Threshold)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: negative parallelism %d", cfg.Parallelism)
	}
	return &Pipeline{cfg: cfg, lossyC: lc, lossless: ll}, nil
}

// Config returns the effective (defaulted) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// shouldLossy implements Algorithm 1 line 4: "weight" in name and
// flat size above the threshold.
func (p *Pipeline) shouldLossy(e model.Entry) bool {
	return e.DType == model.Float32 && e.IsWeightNamed() && e.NumElements() > p.cfg.Threshold
}

// Compress encodes sd into a FedSZ bitstream: CompressTo into a
// buffer, so the bytes and Stats are the streaming encoder's exactly.
// The caller must not mutate sd while the call is in flight.
func (p *Pipeline) Compress(sd *model.StateDict) ([]byte, Stats, error) {
	buf := compressBufs.Get().(*bytes.Buffer)
	defer compressBufs.Put(buf)
	buf.Reset()
	st, err := p.CompressTo(buf, sd)
	if err != nil {
		return nil, st, err
	}
	return bytes.Clone(buf.Bytes()), st, nil
}

// compressBufs recycles Compress's frame buffers: the frame grows in a
// buffer that has held one before, and the caller gets an exact-size
// copy, rather than the doublings of a fresh buffer and their slack.
var compressBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Decompress decodes a FedSZ bitstream back into a state dict with the
// original entry order: DecompressFrom over buf, decoding tensors
// across runtime.GOMAXPROCS(0) workers. No configuration is needed: the
// bitstream is self-describing. An empty buf is corrupt, not io.EOF.
func Decompress(buf []byte) (*model.StateDict, error) {
	sd, err := DecompressFrom(bytes.NewReader(buf), 0)
	if err == io.EOF {
		return nil, fmt.Errorf("%w: empty frame", ErrCorrupt)
	}
	return sd, err
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func unpackBools(packed []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = packed[i/8]&(1<<uint(i%8)) != 0
	}
	return out
}
