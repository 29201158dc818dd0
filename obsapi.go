package fedsz

// Observability: every subsystem — compressor families, transport,
// orchestrator, hierarchy — reports into one
// process-wide metrics registry and round-span trace. This file is
// the public surface over internal/obs: snapshot the registry, read
// recent round spans, or mount the whole introspection plane
// (/metrics, /rounds, /debug/vars, /debug/pprof/*) on an address of
// your choosing. Instrumentation is on by default and built to be
// invisible on the hot path; SetMetricsDisabled(true) turns every
// instrument into a no-op for measurement-sensitive runs.

import (
	"io"
	"net/http"

	"fedsz/internal/obs"
)

type (
	// MetricPoint is one instrument's snapshot: name, kind, labels and
	// value (plus per-bucket counts for histograms).
	MetricPoint = obs.Point
	// RoundSpan is one structured record of a federation round —
	// phase timings, per-client outcomes, bytes on the wire — captured
	// by the coordinator and by each edge tier.
	RoundSpan = obs.RoundSpan
	// ObsConfig parameterizes ServeObs.
	ObsConfig = obs.Config
	// ObsServer is a running observability listener.
	ObsServer = obs.Server
	// Tree is one assembled federation round: the local tier's span as
	// the root, every region whose span summary arrived grafted under
	// its participant record, and the computed critical path.
	Tree = obs.Tree
	// TreeNode is one tier's view of the round inside a Tree.
	TreeNode = obs.TreeNode
	// PathSegment is one hop of a round's critical path.
	PathSegment = obs.PathSegment
	// SpanSummary is the compact cross-tier span form an edge ships
	// upstream so its regional round joins the federation trace.
	SpanSummary = obs.SpanSummary
)

// Metrics snapshots every instrument in the process-wide registry.
func Metrics() []MetricPoint { return obs.Default.Snapshot() }

// WriteMetrics writes the registry in Prometheus text exposition
// format (what /metrics serves).
func WriteMetrics(w io.Writer) { obs.Default.WritePrometheus(w) }

// RoundTrace returns up to n recent round spans, newest last
// (n <= 0 returns all retained spans; the trace keeps the last 128
// unless resized via ObsConfig.TraceRounds).
func RoundTrace(n int) []RoundSpan { return obs.DefaultTrace.Recent(n) }

// RoundTree assembles up to n recent federation rounds into trees,
// newest last: each coordinator span joined with the edge span
// summaries that arrived for its trace ID, plus the computed critical
// path (what /rounds/tree serves).
func RoundTree(n int) []Tree { return obs.DefaultAssembler.Trees(obs.DefaultTrace, n) }

// MetricsHandler returns the introspection mux: /metrics
// (Prometheus text), /rounds (spans as JSON), /rounds/tree (assembled
// round trees), /healthz, /readyz, /debug/vars (expvar) and
// /debug/pprof/*. Mount it on any server.
func MetricsHandler() http.Handler { return obs.Handler(nil, nil) }

// ServeMetrics starts the introspection listener on addr and returns
// immediately (empty addr returns (nil, nil) — observability stays
// process-internal). This is what fedszserver/fedszedge -metrics-addr
// calls.
func ServeMetrics(addr string) (*ObsServer, error) {
	return obs.Serve(obs.Config{Addr: addr})
}

// ServeObs is ServeMetrics with a full ObsConfig (custom registry or
// trace).
func ServeObs(cfg ObsConfig) (*ObsServer, error) { return obs.Serve(cfg) }

// SetMetricsDisabled globally disables (true) or re-enables (false)
// every instrument and the round trace. Disabled instruments cost one
// atomic load per update.
func SetMetricsDisabled(v bool) { obs.SetDisabled(v) }
