// Command fedszclient joins a fedszserver federation over TCP, trains
// locally on its shard of the synthetic dataset, and uploads
// FedSZ-compressed updates until the server signals completion.
// Uploads stream through the pipelined codec path: each tensor's
// compressed section goes onto the socket while the next tensor is
// still compressing, hiding compression time behind transmission.
//
// The session is resilient: a dropped connection re-dials under
// jittered exponential backoff (-retries/-backoff), re-registers and
// resumes participation — surviving coordinator restarts — and the
// process exits nonzero only once the retry budget is exhausted.
// -checksum emits CRC32C-checked frames so wire corruption is
// quarantined server-side instead of folded into the global model.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"fedsz"
	"fedsz/internal/dataset"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/obs"
	"fedsz/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fedszclient:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "localhost:9000", "server address")
		shard     = flag.Int("shard", 0, "this client's shard index")
		shards    = flag.Int("shards", 2, "total shard count")
		bound     = flag.Float64("bound", 1e-2, "relative error bound (must match server)")
		comp      = flag.String("compressor", "sz2", "lossy compressor (must match server)")
		checksum  = flag.Bool("checksum", false, "emit CRC32C-checked frames (must match server)")
		retries   = flag.Int("retries", 5, "reconnect attempts after a connection failure (-1 = retry forever)")
		backoff   = flag.Duration("backoff", 100*time.Millisecond, "base reconnect backoff (doubles per attempt, jittered, capped at 100x)")
		seed      = flag.Int64("seed", 42, "seed (must match server)")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log format: text|json")
		metricsAt = flag.String("metrics-addr", "", "serve /metrics (codec + retry/backoff series) and /debug/pprof on this address (empty = off)")
		traceN    = flag.Int("trace-rounds", 0, "round spans to retain (0 = default 128; clients record no spans of their own, but the limit applies if a library embeds one)")
	)
	flag.Parse()
	if *shard < 0 || *shard >= *shards {
		return fmt.Errorf("shard %d out of range [0,%d)", *shard, *shards)
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	logger = logger.With("shard", *shard)

	// The resilient client's retry/backoff/session counters and the
	// codec's compression series are recorded regardless; -metrics-addr
	// makes them scrapable (fedsztop included).
	ms, err := fedsz.ServeObs(fedsz.ObsConfig{Addr: *metricsAt, TraceRounds: *traceN})
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	if ms != nil {
		defer ms.Close()
		logger.Info("metrics listening", "addr", ms.Addr())
	}

	opts := []fedsz.Option{fedsz.WithCompressor(*comp), fedsz.WithRelBound(*bound)}
	if *checksum {
		opts = append(opts, fedsz.WithChecksum())
	}
	codec, err := fedsz.NewCodec(opts...)
	if err != nil {
		return err
	}

	// The first 200×shards samples of the shared dataset are the
	// training pool (the server holds out the tail for evaluation).
	spec := dataset.FashionMNIST()
	pool := spec.Generate(200*(*shards)+400, *seed)
	data := (&dataset.Dataset{
		Name: pool.Name, X: pool.X[:200*(*shards)*pool.Dim], Y: pool.Y[:200*(*shards)],
		N: 200 * (*shards), Dim: pool.Dim, Classes: pool.Classes,
	}).Split(*shards)[*shard]
	net_ := nn.MobileNetV2Mini(spec.Dim, spec.Classes, *seed)

	logger.Info("joining federation",
		"addr", *addr, "shards", *shards, "local_samples", data.N, "retries", *retries)

	// The resilient session survives coordinator restarts and transient
	// network faults: a dropped connection backs off exponentially
	// (jittered) and redials, any session that completes at least one
	// round refills the retry budget, and the process exits nonzero
	// only once the budget is truly exhausted — or on a protocol error,
	// which no amount of retrying fixes.
	return transport.RunResilientClient(transport.ClientConfig{
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", *addr) },
		Codec:       codec,
		MaxRetries:  *retries,
		BaseBackoff: *backoff,
		MaxBackoff:  100 * *backoff,
		Seed:        *seed + int64(*shard),
		Logger:      logger,
		Train: func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			if err := net_.LoadStateDict(global); err != nil {
				return nil, 0, err
			}
			data.Shuffle(*seed + int64(round))
			var loss float32
			for lo := 0; lo+20 <= data.N; lo += 20 {
				x, y := data.Batch(lo, lo+20)
				loss = net_.TrainBatch(x, y, 0.01, 0.9)
			}
			logger.Info("round trained", "round", round, "loss", fmt.Sprintf("%.4f", loss))
			return net_.StateDict(), data.N, nil
		},
	})
}
