package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, one line per
// instrument, histogram _bucket/_sum/_count expansion.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil || r.inert {
		return
	}
	var b strings.Builder
	for _, f := range r.scrape() {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind.String())
		f.mu.RLock()
		for _, k := range f.order {
			in := f.inst[k]
			vals := f.vals[k]
			switch m := in.(type) {
			case *Counter:
				writeSample(&b, f.name, f.keys, vals, "", "", float64(m.Value()))
			case *Gauge:
				writeSample(&b, f.name, f.keys, vals, "", "", float64(m.Value()))
			case *FloatGauge:
				writeSample(&b, f.name, f.keys, vals, "", "", m.Value())
			case *Histogram:
				var cum int64
				for i := range m.counts {
					cum += m.counts[i].Load()
					le := "+Inf"
					if i < len(m.bounds) {
						le = formatFloat(m.bounds[i])
					}
					writeSample(&b, f.name+"_bucket", f.keys, vals, "le", le, float64(cum))
				}
				writeSample(&b, f.name+"_sum", f.keys, vals, "", "", m.Sum())
				writeSample(&b, f.name+"_count", f.keys, vals, "", "", float64(m.Count()))
			}
		}
		f.mu.RUnlock()
		io.WriteString(w, b.String())
	}
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(b *strings.Builder, name string, keys, vals []string, extraK, extraV string, value float64) {
	b.WriteString(name)
	if len(keys) > 0 || extraK != "" {
		b.WriteByte('{')
		first := true
		for i, k := range keys {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(b, "%s=%q", k, vals[i])
		}
		if extraK != "" {
			if !first {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", extraK, extraV)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(value))
	b.WriteByte('\n')
}

// Handler returns the observability mux:
//
//	/metrics      Prometheus text exposition of reg
//	/rounds       recent round spans from trace as JSON (?n= limit)
//	/rounds/tree  assembled federation round trees with critical path
//	/healthz      liveness (200 once the listener serves)
//	/readyz       readiness (200 once the first round span is gathered)
//	/debug/pprof  live profiling endpoints
//
// nil reg/trace default to Default/DefaultTrace; round trees are
// assembled by DefaultAssembler.
func Handler(reg *Registry, trace *RoundTrace) http.Handler {
	if reg == nil {
		reg = Default
	}
	if trace == nil {
		trace = DefaultTrace
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/rounds", func(w http.ResponseWriter, req *http.Request) {
		n := 0
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
			n = v
		}
		spans := trace.Recent(n)
		if spans == nil {
			spans = []RoundSpan{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(spans)
	})
	mux.HandleFunc("/rounds/tree", func(w http.ResponseWriter, req *http.Request) {
		n := 0
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
			n = v
		}
		trees := DefaultAssembler.Trees(trace, n)
		if trees == nil {
			trees = []Tree{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(trees)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		// Ready means the process has gathered at least one federation
		// round — the smoke scripts poll this instead of sleeping.
		if trace.Total() < 1 {
			http.Error(w, "no rounds yet", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, "fedsz observability: /metrics /rounds /rounds/tree /healthz /readyz /debug/pprof/\n")
	})
	return mux
}

// Config configures the observability listener.
type Config struct {
	// Addr is the listen address (e.g. ":9090"); empty disables.
	Addr string
	// Registry to expose; nil means Default.
	Registry *Registry
	// Trace to expose on /rounds; nil means DefaultTrace.
	Trace *RoundTrace
	// TraceRounds resizes the trace's span retention before serving
	// (0 keeps the trace's current capacity, DefaultTraceCap for the
	// package-level trace). Binaries expose it as -trace-rounds.
	TraceRounds int
}

// Server is a running observability listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts the observability HTTP listener and returns
// immediately; the server runs until Close. A Config with an empty
// Addr returns (nil, nil).
func Serve(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		return nil, nil
	}
	if cfg.TraceRounds > 0 {
		trace := cfg.Trace
		if trace == nil {
			trace = DefaultTrace
		}
		trace.Resize(cfg.TraceRounds)
		DefaultAssembler.Resize(cfg.TraceRounds)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(cfg.Registry, cfg.Trace), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}
