// Command benchmark is the repository's benchmark: real federation
// rounds over TCP loopback on four workloads, an Eqn. 1 layer trace and
// a per-layer pass. See README.md; BENCHMARK.json at the repository root
// is the contract the driver runs it by.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fedsz/internal/stats"
)

// metricDef names one metric. The end-to-end ones carry the share of the
// parent's median by which they may worsen before a change is a
// regression; BENCHMARK.json repeats this table and a test keeps the two
// in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_wall_p50_s", "s", "lower", 0.25},
	{"round_wall_p75_s", "s", "lower", 0.25},
	{"agg_throughput_mb_s", "MB/s", "higher", 0.25},
	{"cpu_s_per_round", "s", "lower", 0.25},
	{"uplink_bytes_per_update", "B", "lower", 0.001},
	{"downlink_bytes_per_update", "B", "lower", 0.001},
	{"alloc_mb_per_round", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// roundLayers come from the traced run, as medians per round.
var roundLayers = []metricDef{
	{Name: "transport.downlink_phase_s", Unit: "s", Better: "lower"},
	{Name: "transport.gather_phase_s", Unit: "s", Better: "lower"},
	{Name: "transport.commit_phase_s", Unit: "s", Better: "lower"},
	{Name: "transport.downlink_recv_s", Unit: "s", Better: "lower"},
	{Name: "client.train_s", Unit: "s", Better: "lower"},
	{Name: "fl.encode_self_s", Unit: "s", Better: "lower"},
	{Name: "transport.uplink_write_s", Unit: "s", Better: "lower"},
	{Name: "fl.decode_self_s", Unit: "s", Better: "lower"},
	{Name: "transport.uplink_read_wait_s", Unit: "s", Better: "lower"},
	{Name: "orchestrator.fold_s", Unit: "s", Better: "lower"},
	{Name: "transport.wire_overhead_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "hier.partial_wire_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.edge_forward_s", Unit: "s", Better: "lower"},
	{Name: "netsim.pacing_err_frac", Unit: "frac", Better: "lower"},
	{Name: "netsim.paced_wire_frac", Unit: "frac", Better: "higher"},
	{Name: "trace.coverage_frac", Unit: "frac", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}

// passLayers come from the layers pass.
var passLayers = []metricDef{
	{Name: "bitstream.write_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "bitstream.read_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "huffman.encode_msym_s", Unit: "Msym/s", Better: "higher"},
	{Name: "huffman.decode_msym_s", Unit: "Msym/s", Better: "higher"},
	{Name: "huffman.encode_allocs_op", Unit: "count", Better: "lower"},
	{Name: "sz2.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "sz2.decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "sz2.ratio", Unit: "x", Better: "higher"},
	{Name: "sz2.max_err_over_bound", Unit: "frac", Better: "lower"},
	{Name: "sz3.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "sz3.decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "sz3.ratio", Unit: "x", Better: "higher"},
	{Name: "sz3.max_err_over_bound", Unit: "frac", Better: "lower"},
	{Name: "lossless.blosclz.compress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "lossless.blosclz.decompress_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.compress_to_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.decompress_entries_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.compress_allocs_per_entry", Unit: "count", Better: "lower"},
	{Name: "core.decompress_allocs_per_entry", Unit: "count", Better: "lower"},
	{Name: "core.ratio", Unit: "x", Better: "higher"},
	{Name: "core.pipeline_vs_kernel_frac", Unit: "frac", Better: "higher"},
	{Name: "core.marshal_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.unmarshal_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "orchestrator.fold_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "orchestrator.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "orchestrator.agg_memory_mb", Unit: "MB", Better: "lower"},
	{Name: "hier.encode_partial_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "hier.decode_partial_mb_s", Unit: "MB/s", Better: "higher"},
}

var perLayer = append(append([]metricDef(nil), roundLayers...), passLayers...)

// setupProbes is how many extra times a run sets the federation up and
// tears it down again before the measured one; setup_s is the median of
// them all.
const setupProbes = 8

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the flags a single-workload run reads.
type options struct {
	seed     int64
	seconds  float64
	rounds   int
	traceOut string
}

func main() {
	// The reference box has two cores; pinning keeps a larger host from
	// measuring a different amount of parallelism.
	runtime.GOMAXPROCS(2)
	var (
		opt      options
		name     = flag.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+", or layers); empty runs the whole suite, one process per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with the tracing decorators off; 1: per-layer metrics from a traced run and the layers pass")
		out      = flag.String("o", "", "suite: also write the results and the environment stamp to this JSON file")
		compare  = flag.Bool("compare", false, "compare suite files: -compare A1.json [A2.json ...] vs B1.json [B2.json ...]")
		exitCode = 0
	)
	flag.Int64Var(&opt.seed, "seed", 42, "seed of the model weights and of the synthetic updates")
	flag.Float64Var(&opt.seconds, "seconds", 20, "how long a run measures")
	flag.IntVar(&opt.rounds, "rounds", 0, "time exactly this many rounds instead of -seconds")
	flag.StringVar(&opt.traceOut, "trace-out", "", "with -trace 1: write the spans to this JSON file")
	flag.Parse()

	var err error
	switch {
	case *compare:
		var regressed bool
		regressed, err = runCompare(os.Stdout, flag.Args())
		if regressed {
			exitCode = 1
		}
	case *name == "":
		var ok bool
		ok, err = runSuite(opt, *out)
		if !ok {
			exitCode = 1
		}
	default:
		var res *result
		res, err = runOne(*name, *trace != 0, opt)
		if err == nil {
			printResult(res)
			if !res.Correct {
				// The result line is still printed: it says what failed.
				fmt.Fprintln(os.Stderr, "benchmark: a correctness check failed")
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(exitCode)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// runOne runs one workload in this process and returns its result line.
func runOne(name string, traced bool, opt options) (*result, error) {
	budget := time.Duration(opt.seconds * float64(time.Second))
	if name == "layers" {
		m, err := runLayers(opt.seed, budget)
		if m == nil {
			return nil, err
		}
		return newResult(err == nil, 1, 0, m, passLayers), nil
	}
	wl, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		return runTraced(wl, opt, budget)
	}

	setups := make([]float64, 0, setupProbes+1)
	for i := 0; i < setupProbes; i++ {
		probe, err := runFederation(runSpec{wl: wl, seed: opt.seed, setupOnly: true})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up probe: %w", name, err)
		}
		setups = append(setups, probe.setup.Seconds())
	}
	// Reference seconds (hostspeed.go) on unshaped links only: a shaped
	// link's rounds are set by the configured rate and the pacer's timers,
	// which the host kernel does not track.
	res, err := runFederation(runSpec{wl: wl, seed: opt.seed, warmup: warmupRounds, window: budget, rounds: opt.rounds, audit: auditRounds, refSeconds: wl.bps == 0})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(res.walls) == 0 {
		return nil, fmt.Errorf("%s: %w", name, errNoRounds)
	}
	setups = append(setups, res.setup.Seconds())
	rounds := float64(len(res.walls))
	k := hostScale(res.hostPasses)
	m := map[string]float64{
		"setup_s":          median(setups),
		"round_wall_p50_s": median(seconds(res.walls)) * k,
		// The highest percentile with ten samples beyond it on the slowest
		// workload (some 45 rounds in 20 s); the count is printed.
		"round_wall_p75_s":          stats.Quantile(seconds(res.walls), 0.75) * k,
		"agg_throughput_mb_s":       numClients * float64(res.modelBytes) * rounds / 1e6 / (res.window.Seconds() * k),
		"cpu_s_per_round":           res.cpu.Seconds() * k / rounds,
		"uplink_bytes_per_update":   float64(res.upBytes) / float64(res.byteUpdates),
		"downlink_bytes_per_update": float64(res.downBytes) / float64(res.byteUpdates),
		"alloc_mb_per_round":        float64(res.allocBytes) / 1e6 / rounds,
		"peak_rss_mb":               peakRSSMB(),
	}
	fmt.Printf("# %s: %d timed rounds in %.3f s (1 s = %.3f reference s), %d updates failed of %d, %d bound violations in %d audit rounds, global %016x\n",
		name, len(res.walls), res.window.Seconds(), k, res.attempted-res.folded, res.attempted, res.violations, auditRounds, res.globalHash)
	return newResult(res.violations == 0 && res.folded == res.attempted, res.attempted, res.attempted-res.folded, m, endToEnd), nil
}

// runTraced is a -trace 1 run: a short untraced federation for the
// overhead baseline, the same again with the decorators on, and the
// layers pass, splitting the budget a quarter, a quarter and a half.
func runTraced(wl workload, opt options, budget time.Duration) (*result, error) {
	const warmup = 3
	base, err := runFederation(runSpec{wl: wl, seed: opt.seed, warmup: warmup, window: budget / 4, rounds: opt.rounds})
	if err != nil {
		return nil, fmt.Errorf("%s: untraced: %w", wl.name, err)
	}
	tr := newTracer()
	res, err := runFederation(runSpec{wl: wl, seed: opt.seed, warmup: warmup, window: budget / 4, rounds: opt.rounds, audit: auditRounds, tr: tr})
	if err != nil {
		return nil, fmt.Errorf("%s: traced: %w", wl.name, err)
	}
	if len(base.walls) == 0 || len(res.walls) == 0 {
		return nil, fmt.Errorf("%s: %w", wl.name, errNoRounds)
	}
	if opt.traceOut != "" {
		if err := tr.writeJSON(opt.traceOut); err != nil {
			return nil, err
		}
	}
	m := tr.layerMetrics(res, wl)
	m["trace.overhead_frac"] = median(seconds(res.walls))/median(seconds(base.walls)) - 1
	layers, layersErr := runLayers(opt.seed, budget/2)
	if layers == nil {
		return nil, layersErr
	}
	maps.Copy(m, layers)

	correct := res.violations == 0 && res.folded == res.attempted && layersErr == nil
	if layersErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", layersErr)
	}
	if c := m["trace.coverage_frac"]; c < 0.95 || c > 1.05 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: the three phases cover %.3f of the round wall, want 0.95 to 1.05\n", wl.name, c)
		correct = false
	}
	if f := m["netsim.paced_wire_frac"]; wl.bps > 0 && f < 0.6 {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %s: paced wire is %.2f of the round wall; below 0.6 the workload is no longer wire-bound\n", wl.name, f)
	}
	fmt.Printf("# %s: %d traced rounds (%d untraced), %d spans\n", wl.name, len(res.walls), len(base.walls), len(tr.spans))
	return newResult(correct, res.attempted, res.attempted-res.folded, m, perLayer), nil
}

// newResult keeps the metrics defs names, in their units.
func newResult(correct bool, attempted, failed int, m map[string]float64, defs []metricDef) *result {
	r := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return r
}

// printResult prints every metric by name with its unit, then the
// result line the driver reads.
func printResult(r *result) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Printf("%-44s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(line))
}

// peakRSSMB reads the process's resident-set high-water mark, which is
// why each workload is its own process.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// environment stamps a suite file with what the numbers were taken on.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func stampEnvironment(opt options) environment {
	env := environment{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: opt.seed, Seconds: int(opt.seconds),
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(rev))
	}
	return env
}

// suiteFile is what -o writes and -compare reads: per workload, the
// end-to-end and per-layer metrics of one run each.
type suiteFile struct {
	Env       environment                 `json:"env"`
	Workloads map[string]map[string]value `json:"workloads"`
}

// runSuite re-executes this binary once per workload and trace mode, so
// that every workload has its own process (peak RSS, cold pools), prints
// what each printed, and reports whether every check passed.
func runSuite(opt options, outPath string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	file := suiteFile{Env: stampEnvironment(opt), Workloads: make(map[string]map[string]value)}
	fmt.Printf("# %s, %d cores, GOMAXPROCS %d, %s, commit %s, seed %d, %d s per run\n",
		file.Env.CPU, file.Env.NumCPU, file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.Commit, file.Env.Seed, file.Env.Seconds)
	ok := true
	for _, wl := range workloads {
		file.Workloads[wl.name] = make(map[string]value)
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", wl.name, "-trace", trace, "-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-rounds", strconv.Itoa(opt.rounds)}
			if opt.traceOut != "" && trace == "1" {
				args = append(args, "-trace-out", wl.name+"."+opt.traceOut)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			if err != nil {
				return false, fmt.Errorf("%s -trace %s: %w", wl.name, trace, err)
			}
			var res result
			if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
				return false, fmt.Errorf("%s -trace %s: result line: %w", wl.name, trace, err)
			}
			ok = ok && res.Correct
			maps.Copy(file.Workloads[wl.name], res.Metrics)
		}
	}
	if outPath == "" {
		return ok, nil
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(outPath, append(buf, '\n'), 0o644)
}

func lastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	return out[bytes.LastIndexByte(out, '\n')+1:]
}
