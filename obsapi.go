package fedsz

// Observability: every subsystem — compressor families, transport,
// orchestrator, hierarchy — reports into one process-wide metrics
// registry and round-span trace. This file is the public surface over
// internal/obs: render the registry, or mount the whole introspection
// plane (/metrics, /rounds, /rounds/tree, /healthz, /readyz,
// /debug/pprof/*) on an address of your choosing.

import (
	"io"

	"fedsz/internal/obs"
)

type (
	// ObsConfig parameterizes ServeObs.
	ObsConfig = obs.Config
	// ObsServer is a running observability listener.
	ObsServer = obs.Server
	// Tree is one assembled federation round: the local tier's span as
	// the root, every region whose span summary arrived grafted under
	// its participant record, and the computed critical path (what
	// /rounds/tree serves).
	Tree = obs.Tree
)

// WriteMetrics writes the registry in Prometheus text exposition
// format (what /metrics serves).
func WriteMetrics(w io.Writer) { obs.Default.WritePrometheus(w) }

// ServeObs starts the introspection listener on cfg.Addr and returns
// immediately (an empty Addr returns (nil, nil) — observability stays
// process-internal). This is what the binaries' -metrics-addr calls.
func ServeObs(cfg ObsConfig) (*ObsServer, error) { return obs.Serve(cfg) }
