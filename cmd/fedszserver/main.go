// Command fedszserver runs a FedSZ federated-learning server over real
// TCP on the orchestration subsystem: clients join and leave
// dynamically, every round samples the currently connected population
// (optionally over-provisioned), stragglers past -deadline are cut,
// and a client that disconnects mid-round is dropped while the round
// commits with the remaining updates — one dead uplink no longer
// aborts the run.
//
// Transfers are pipelined end to end: the global model broadcast
// streams entry by entry, and each client's uplink folds into the
// streaming sharded aggregator as its tensor sections decompress — the
// server never materializes a client's full state dict.
//
// The server is durable and fault-tolerant: -checksum requires
// CRC32C-checked frames (corrupt uplinks quarantine the client for
// the round instead of folding poison), -checkpoint snapshots
// coordinator state atomically every -checkpoint-every commits,
// SIGINT/SIGTERM drain the in-flight round and write a final
// checkpoint, and -restore resumes a killed run from its last
// snapshot while clients ride their retry loop across the restart.
//
// The listener accepts BOTH direct clients and regional edge
// aggregators (cmd/fedszedge) — an edge joins like a client but
// uploads one checksummed partial sum covering its whole region, so
// -min-clients counts participants (edges and direct clients alike)
// and the coordinator's fan-in stays small however many devices sit
// behind the edges.
//
// Pair with cmd/fedszclient (and optionally cmd/fedszedge):
//
//	fedszserver -addr :9000 -min-clients 2 -rounds 5 -checkpoint ck.bin &
//	fedszclient -addr localhost:9000 -shard 0 -shards 2 &
//	fedszclient -addr localhost:9000 -shard 1 -shards 2
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fedsz"
	"fedsz/internal/dataset"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
	"fedsz/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fedszserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":9000", "listen address")
		minCli    = flag.Int("min-clients", 2, "clients required before the first round starts")
		perRound  = flag.Int("clients-per-round", 0, "participants sampled per round (0 = all joined)")
		overProv  = flag.Float64("over-provision", 1, "sampling over-provisioning factor (≥1)")
		rounds    = flag.Int("rounds", 5, "federated rounds")
		deadline  = flag.Duration("deadline", 0, "per-round straggler cutoff (0 = wait for everyone)")
		bound     = flag.Float64("bound", 1e-2, "relative error bound")
		comp      = flag.String("compressor", "sz2", "lossy compressor")
		bandwidth = flag.Float64("bandwidth", 0, "per-connection rate limit in Mbps (0 = unlimited)")
		shards    = flag.Int("shards", 0, "aggregator shard count (0 = auto)")
		checksum  = flag.Bool("checksum", false, "require CRC32C-checked frames (clients must pass -checksum too)")
		ckpt      = flag.String("checkpoint", "", "checkpoint file: snapshot coordinator state here periodically and on shutdown")
		ckptEvery = flag.Int("checkpoint-every", 1, "committed rounds between checkpoints")
		restore   = flag.Bool("restore", false, "resume from -checkpoint instead of starting fresh (file must exist)")
		seed      = flag.Int64("seed", 42, "seed (must match clients)")
		verbose   = flag.Bool("v", false, "shorthand for -log-level debug")
		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat = flag.String("log-format", "text", "log format: text|json")
		metricsAt = flag.String("metrics-addr", "", "serve /metrics, /rounds, /rounds/tree and /debug/pprof on this address (empty = off)")
		traceN    = flag.Int("trace-rounds", 0, "round spans to retain for /rounds and /rounds/tree (0 = default 128)")
	)
	flag.Parse()

	if *verbose && *logLevel == "info" {
		*logLevel = "debug"
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	ms, err := fedsz.ServeObs(fedsz.ObsConfig{Addr: *metricsAt, TraceRounds: *traceN})
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	if ms != nil {
		defer ms.Close()
		logger.Info("metrics listening", "addr", ms.Addr())
	}

	codecOpts := []fedsz.Option{fedsz.WithCompressor(*comp), fedsz.WithRelBound(*bound)}
	if *checksum {
		codecOpts = append(codecOpts, fedsz.WithChecksum())
	}
	codec, err := fedsz.NewCodec(codecOpts...)
	if err != nil {
		return err
	}

	// Server and clients carve one shared dataset (same spec + seed, so
	// identical class templates): clients shard the leading samples,
	// the server evaluates on the 400 samples after them. The client
	// count only shapes the dataset split, so -min-clients stands in
	// for the expected population here.
	spec := dataset.FashionMNIST()
	full := spec.Generate(200*(*minCli)+400, *seed)
	evalNet := nn.MobileNetV2Mini(spec.Dim, spec.Classes, *seed)
	x, y := full.Batch(200*(*minCli), full.N)

	// Transport's printf-style diagnostics (joins, leaves, rejected
	// connections) land at debug level; structured drop events get
	// their own warn-level record below. The downlink gate's decision —
	// made once, at the first round — is what -bandwidth bought, so it is
	// logged at info.
	logf := func(format string, args ...interface{}) {
		if strings.HasPrefix(format, "downlink:") {
			logger.Info(fmt.Sprintf(format, args...))
			return
		}
		logger.Debug(fmt.Sprintf(format, args...))
	}
	cfg := transport.OrchestratedConfig{
		Codec:           codec,
		MinClients:      *minCli,
		ClientsPerRound: *perRound,
		OverProvision:   *overProv,
		Rounds:          *rounds,
		RoundDeadline:   *deadline,
		BandwidthBps:    fedsz.Mbps(*bandwidth),
		Shards:          *shards,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		Logf:            logf,
		OnDrop: func(id string, reason orchestrator.DropReason) {
			logger.Warn("client dropped", "client", id, "reason", reason.String())
		},
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			if err := evalNet.LoadStateDict(global); err != nil {
				logger.Error("round eval failed", "round", round, "err", err)
				return
			}
			logger.Info("round committed",
				"round", round,
				"accuracy", fmt.Sprintf("%.3f", evalNet.Accuracy(x, y)),
				"committed", st.Committed,
				"sampled", st.Sampled,
				"dropped", st.Dropped,
				"agg_kb", fmt.Sprintf("%.1f", float64(st.AggMemory)/1e3))
		},
	}
	if *restore {
		if *ckpt == "" {
			return fmt.Errorf("-restore needs -checkpoint")
		}
		ck, err := orchestrator.LoadCheckpoint(*ckpt)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		cfg.Resume = ck
		logger.Info("resuming from checkpoint",
			"path", *ckpt, "commits", ck.Commits, "rounds", *rounds)
	}
	srv, err := transport.NewOrchestrated(cfg)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM drain gracefully: the round in flight commits, a
	// final checkpoint is written when -checkpoint is set, and clients
	// get a proper shutdown message. A second signal kills the process
	// the usual way (the handler resets after one shot).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		signal.Stop(sigc)
		logger.Info("draining round and shutting down (repeat signal to force)", "signal", sig.String())
		srv.Shutdown()
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	logger.Info("listening",
		"addr", ln.Addr().String(), "min_clients", *minCli, "rounds", *rounds,
		"compressor", *comp, "bound", fmt.Sprintf("%.0e", *bound), "deadline", time.Duration(*deadline).String())

	initial := nn.MobileNetV2Mini(spec.Dim, spec.Classes, *seed).StateDict()
	final, err := srv.Serve(ln, initial)
	if err != nil {
		return err
	}
	logger.Info("training complete", "model_entries", final.Len())
	return nil
}
