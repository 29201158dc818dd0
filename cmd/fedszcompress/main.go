// Command fedszcompress exercises the FedSZ pipeline on a synthetic
// model update from the command line: build a pretrained-like state
// dict, compress it with a chosen compressor and bound, verify the
// round trip and report sizes, ratios and Eqn. 1 decisions.
//
// Usage:
//
//	fedszcompress -model alexnet -scale 8 -compressor sz2 -bound 1e-2
//	fedszcompress -model mobilenetv2 -scale 1 -bandwidth 10 -verify
//
// -verify decodes the output and exits nonzero with a clear message if
// any element violates the requested error bound. -list prints every
// registered compressor family with its bound guarantee, then exits.
//
// Three streaming modes built on the fedsz Encoder/Decoder compose in
// shell pipelines, gzip-style, with `-in`/`-out` defaulting to `-`
// (stdin/stdout): -emit writes a synthetic update in the uncompressed
// wire format, -z compresses that format into a FedSZ frame, and -d
// decompresses a frame back. Every stage streams — no mode holds a
// full wire image in memory.
//
//	fedszcompress -emit -scale 4 | fedszcompress -z | fedszcompress -d | wc -c
//	fedszcompress -emit | fedszcompress -z -compressor sz3 -out update.fsz
//	fedszcompress -d -in update.fsz -out update.fsd
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"fedsz"
	"fedsz/internal/core"
	"fedsz/internal/lossy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fedszcompress:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelName  = flag.String("model", "mobilenetv2", "model: alexnet, resnet50, mobilenetv2")
		scale      = flag.Int("scale", 8, "width divisor (1 = paper scale)")
		compressor = flag.String("compressor", "sz2", "compressor family (see -list): "+strings.Join(append(lossy.Families(), core.LossySZxArtifact), ", "))
		listFams   = flag.Bool("list", false, "list registered compressor families with their bound guarantees and exit")
		bound      = flag.Float64("bound", 1e-2, "relative error bound")
		verify     = flag.Bool("verify", false, "decode the output and fail (exit nonzero) if any element violates the requested error bound")
		bandwidth  = flag.Float64("bandwidth", 10, "link bandwidth in Mbps for the Eqn. 1 report")
		seed       = flag.Int64("seed", 42, "weight seed")
		zMode      = flag.Bool("z", false, "stream mode: compress a state-dict stream into a FedSZ frame")
		dMode      = flag.Bool("d", false, "stream mode: decompress a FedSZ frame into a state-dict stream")
		emitMode   = flag.Bool("emit", false, "stream mode: write the synthetic model's state-dict stream")
		in         = flag.String("in", "-", "stream-mode input path ('-' = stdin)")
		out        = flag.String("out", "-", "stream-mode output path ('-' = stdout)")
	)
	flag.Parse()

	if *listFams {
		return listFamilies(os.Stdout)
	}

	modes := 0
	for _, m := range []bool{*zMode, *dMode, *emitMode} {
		if m {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-z, -d and -emit are mutually exclusive")
	}

	var arch fedsz.Arch
	switch *modelName {
	case "alexnet":
		arch = fedsz.AlexNet(*scale)
	case "resnet50":
		arch = fedsz.ResNet50(*scale)
	case "mobilenetv2":
		arch = fedsz.MobileNetV2(*scale)
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}

	opts := []fedsz.Option{fedsz.WithCompressor(*compressor), fedsz.WithRelBound(*bound)}

	if modes == 1 {
		if (*emitMode || *dMode) && *verify {
			return fmt.Errorf("-verify needs the original update to compare against: use it with -z or the default mode")
		}
		return runStream(*zMode, *dMode, arch, *seed, opts, *bound, *verify, *in, *out)
	}

	sd := fedsz.BuildStateDict(arch, *seed)
	fmt.Printf("model %s (scale %d): %d entries, %d elements, %.1f MB\n",
		arch.Name, *scale, sd.Len(), sd.NumElements(), float64(sd.SizeBytes())/1e6)

	buf, stats, err := fedsz.Compress(sd, opts...)
	if err != nil {
		return err
	}

	decompStart := time.Now()
	restored, err := fedsz.Decompress(buf)
	if err != nil {
		return err
	}
	decompTime := time.Since(decompStart)

	if *verify {
		if err := verifyBound(sd, restored, *bound); err != nil {
			return err
		}
		fmt.Printf("verify: all lossy elements within REL %.0e\n", *bound)
	}
	maxErr := maxRelError(sd, restored)
	fmt.Printf("compressor=%s bound=%.0e\n", *compressor, *bound)
	fmt.Printf("  compressed:   %.1f MB (ratio %.2fx)\n", float64(stats.CompressedBytes)/1e6, stats.Ratio())
	fmt.Printf("  lossy path:   %d tensors, %.1f MB -> %.1f MB\n",
		stats.NumLossyTensors, float64(stats.LossyInBytes)/1e6, float64(stats.LossyOutBytes)/1e6)
	fmt.Printf("  lossless:     %d entries, %.1f MB -> %.1f MB\n",
		stats.NumMetaEntries, float64(stats.MetaInBytes)/1e6, float64(stats.MetaOutBytes)/1e6)
	fmt.Printf("  compress:     %v   decompress: %v\n", stats.CompressTime.Round(time.Millisecond), decompTime.Round(time.Millisecond))
	fmt.Printf("  max rel err:  %.3g (requested %.0e)\n", maxErr, *bound)

	d := fedsz.Decision{
		CompressTime:    stats.CompressTime,
		DecompressTime:  decompTime,
		OriginalBytes:   stats.OriginalBytes,
		CompressedBytes: stats.CompressedBytes,
		BandwidthBps:    fedsz.Mbps(*bandwidth),
	}
	verdict := "send raw"
	if d.ShouldCompress() {
		verdict = "compress"
	}
	fmt.Printf("Eqn.1 @ %.0f Mbps: compressed path %v vs raw %v -> %s (crossover ≈ %.0f Mbps)\n",
		*bandwidth,
		d.CompressedPathTime().Round(time.Millisecond),
		d.UncompressedPathTime().Round(time.Millisecond),
		verdict,
		d.CrossoverBandwidthBps()/1e6)
	return nil
}

// listFamilies prints every registered compressor family with its
// bound guarantee, in the registry's sorted order.
func listFamilies(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %s\n", "FAMILY", "GUARANTEE")
	for _, name := range lossy.Families() {
		f, err := lossy.FamilyByName(name)
		if err != nil {
			return err
		}
		guarantee := "error-bounded"
		if !f.Bounded {
			guarantee = "unbounded"
		}
		fmt.Fprintf(w, "%-8s %s\n", name, guarantee)
	}
	return nil
}

// runStream executes one of the shell-pipeline modes: -emit (synthetic
// state dict out), -z (state dict in, FedSZ frame out) or -d (frame
// in, state dict out). Both sides stream: the frame side goes through
// the fedsz Encoder/Decoder, the plain side through the streaming
// state-dict marshal. With verify set, -z tees the emitted frame into
// memory, decodes it back and fails on any bound violation.
func runStream(zMode, dMode bool, arch fedsz.Arch, seed int64, opts []fedsz.Option, bound float64, verify bool, in, out string) error {
	r, closeIn, err := openStream(in, os.Stdin, func(p string) (io.ReadWriteCloser, error) {
		f, err := os.Open(p)
		return f, err
	})
	if err != nil {
		return err
	}
	defer closeIn()
	w, closeOut, err := openStream(out, os.Stdout, func(p string) (io.ReadWriteCloser, error) {
		f, err := os.Create(p)
		return f, err
	})
	if err != nil {
		return err
	}
	defer closeOut()

	bw := bufio.NewWriterSize(w, 64<<10)
	switch {
	case zMode:
		sd, err := fedsz.UnmarshalStateDictFrom(bufio.NewReaderSize(r, 64<<10))
		if err != nil {
			return fmt.Errorf("read state dict: %w", err)
		}
		var frame bytes.Buffer
		encDst := io.Writer(bw)
		if verify {
			encDst = io.MultiWriter(bw, &frame)
		}
		enc, err := fedsz.NewEncoder(encDst, opts...)
		if err != nil {
			return err
		}
		stats, err := enc.Encode(sd)
		if err != nil {
			return err
		}
		if verify {
			restored, err := fedsz.Decompress(frame.Bytes())
			if err != nil {
				return fmt.Errorf("verify: decode emitted frame: %w", err)
			}
			if err := verifyBound(sd, restored, bound); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "fedszcompress: verify: all lossy elements within REL %.0e\n", bound)
		}
		fmt.Fprintf(os.Stderr, "fedszcompress: %.1f MB -> %.1f MB (ratio %.2fx) in %v\n",
			float64(stats.OriginalBytes)/1e6, float64(stats.CompressedBytes)/1e6,
			stats.Ratio(), stats.CompressTime.Round(time.Millisecond))
	case dMode:
		sd, err := fedsz.NewDecoder(bufio.NewReaderSize(r, 64<<10)).Decode()
		if err != nil {
			return fmt.Errorf("decode frame: %w", err)
		}
		if err := fedsz.MarshalStateDictTo(bw, sd); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fedszcompress: restored %d entries, %.1f MB\n",
			sd.Len(), float64(sd.SizeBytes())/1e6)
	default: // emit
		sd := fedsz.BuildStateDict(arch, seed)
		if err := fedsz.MarshalStateDictTo(bw, sd); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fedszcompress: emitted %s (%d entries, %.1f MB)\n",
			arch.Name, sd.Len(), float64(sd.SizeBytes())/1e6)
	}
	return bw.Flush()
}

// openStream resolves '-' to the standard stream (never closed) or
// opens path via open.
func openStream(path string, std *os.File, open func(string) (io.ReadWriteCloser, error)) (io.ReadWriter, func() error, error) {
	if path == "-" {
		return std, func() error { return nil }, nil
	}
	f, err := open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// boundSlack absorbs float64→float32 rounding at the bound edge: a
// compressor quantizing exactly at ε can land one ulp past it after
// the float32 store.
const boundSlack = 1 + 1e-6

// forEachLossyTensor walks the lossy-path tensors (the Algorithm 1
// partition predicate) of orig alongside their decoded counterparts,
// handing each pair plus orig's value range to fn; a non-nil fn error
// stops the walk. Both -verify and the max-rel-err report share this
// iteration so they can never disagree on which tensors are checked.
func forEachLossyTensor(orig, got *fedsz.StateDict, fn func(name string, od, gd []float32, rng float64) error) error {
	gotEntries := got.Entries()
	for i, e := range orig.Entries() {
		if e.Tensor == nil || !e.IsWeightNamed() || e.NumElements() <= fedsz.DefaultThreshold {
			continue
		}
		if i >= len(gotEntries) || gotEntries[i].Tensor == nil {
			return fmt.Errorf("tensor %q missing from decoded output", e.Name)
		}
		od, gd := e.Tensor.Data(), gotEntries[i].Tensor.Data()
		if len(od) != len(gd) {
			return fmt.Errorf("tensor %q decoded to %d elements, want %d", e.Name, len(gd), len(od))
		}
		mn, mx := od[0], od[0]
		for _, v := range od {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if err := fn(e.Name, od, gd, float64(mx-mn)); err != nil {
			return err
		}
	}
	return nil
}

// verifyBound checks every element of every lossy-path tensor against
// the requested range-relative bound and returns a clear error naming
// the first violating tensor and element. It is the -verify gate: the
// caller exits nonzero on the error.
func verifyBound(orig, got *fedsz.StateDict, bound float64) error {
	err := forEachLossyTensor(orig, got, func(name string, od, gd []float32, rng float64) error {
		abs := bound * rng
		if abs == 0 {
			// Constant tensor: mirror the REL resolution, which falls
			// back to a magnitude-proportional bound.
			abs = bound * math.Abs(float64(od[0]))
			if abs == 0 {
				abs = bound
			}
		}
		for j := range od {
			if d := math.Abs(float64(od[j]) - float64(gd[j])); d > abs*boundSlack {
				return fmt.Errorf("tensor %q element %d violates the bound: |%g - %g| = %g > %g (REL %.0e over range %g)",
					name, j, od[j], gd[j], d, abs, bound, rng)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// maxRelError returns the largest per-tensor range-relative error of
// lossy entries.
func maxRelError(orig, got *fedsz.StateDict) float64 {
	worst := 0.0
	_ = forEachLossyTensor(orig, got, func(_ string, od, gd []float32, rng float64) error {
		if rng == 0 {
			return nil
		}
		for j := range od {
			if d := math.Abs(float64(od[j])-float64(gd[j])) / rng; d > worst {
				worst = d
			}
		}
		return nil
	})
	return worst
}
