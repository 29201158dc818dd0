// Command fedszedge runs a FedSZ regional edge aggregator: it joins an
// upstream coordinator (a fedszserver, or another fedszedge — tiers
// nest) as a single participant, serves its own region of clients on
// the ordinary client protocol, and per round folds the region's
// compressed updates into a streaming sharded aggregator, forwarding
// ONE partial-sum frame upstream instead of every client's uplink.
//
// The coordinator's fan-in becomes the number of edges, not the number
// of clients — the tier that takes a federation from thousands to
// hundreds of thousands of participants. Partial sums are unnormalized
// (Σ weight·value plus total weight), so the committed global model is
// bit-identical to the flat federation's; -checksum stamps each
// partial frame with CRC32C and -lossless optionally packs it for the
// WAN hop.
//
// A three-process federation:
//
//	fedszserver -addr :9000 -min-clients 2 -rounds 5 &
//	fedszedge -listen :9100 -upstream localhost:9000 -min-clients 2 &
//	fedszclient -addr localhost:9100 -shard 0 -shards 2 &
//	fedszclient -addr localhost:9100 -shard 1 -shards 2
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"fedsz"
	"fedsz/internal/obs"
	"fedsz/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fedszedge:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":9100", "region listen address (clients and nested edges join here)")
		upstream  = flag.String("upstream", "localhost:9000", "upstream coordinator or edge address")
		minCli    = flag.Int("min-clients", 1, "region members required before the first regional round")
		deadline  = flag.Duration("deadline", 0, "regional straggler cutoff per round (0 = wait for everyone)")
		bound     = flag.Float64("bound", 1e-2, "relative error bound (must match clients)")
		comp      = flag.String("compressor", "sz2", "lossy compressor (must match clients)")
		checksum  = flag.Bool("checksum", false, "require CRC32C-checked client frames and stamp partial frames")
		lossless  = flag.String("lossless", "", "pack partial frames with this lossless codec for the WAN hop (see fedszcompress -list)")
		bandwidth = flag.Float64("bandwidth", 0, "per-connection rate limit in Mbps, upstream included (0 = unlimited)")
		shards    = flag.Int("shards", 0, "regional aggregator shard count (0 = auto)")
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

	logf := func(format string, args ...interface{}) {
		logger.Debug(fmt.Sprintf(format, args...))
	}
	edge, err := transport.NewEdge(transport.EdgeConfig{
		Upstream:      func() (net.Conn, error) { return net.Dial("tcp", *upstream) },
		Codec:         codec,
		MinClients:    *minCli,
		RoundDeadline: *deadline,
		BandwidthBps:  fedsz.Mbps(*bandwidth),
		Shards:        *shards,
		Checksum:      *checksum,
		Lossless:      *lossless,
		Logf:          logf,
		OnPartial: func(round, updates, wireBytes int) {
			logger.Info("forwarded partial sum",
				"round", round, "updates", updates, "wire_kb", fmt.Sprintf("%.1f", float64(wireBytes)/1e3))
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	logger.Info("edge serving region",
		"listen", ln.Addr().String(), "upstream", *upstream,
		"min_members", *minCli, "deadline", time.Duration(*deadline).String())
	return edge.Serve(ln)
}
