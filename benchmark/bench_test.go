package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
)

// small is a workload shrunk to MobileNetV2(16) and a handful of rounds,
// so the whole file runs in seconds, also under -race.
func small(wl workload, tr *tracer) runSpec {
	wl.div = 16
	return runSpec{wl: wl, seed: 7, warmup: 1, rounds: 2, audit: 1, tr: tr}
}

func mustRun(t *testing.T, spec runSpec) *fedResult {
	t.Helper()
	res, err := runFederation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.walls) != spec.rounds {
		t.Fatalf("timed %d rounds, want %d", len(res.walls), spec.rounds)
	}
	if res.folded != res.attempted {
		t.Fatalf("%d of %d updates committed", res.folded, res.attempted)
	}
	return res
}

// The same seed gives the same wire bytes and the same committed global,
// with the tracing decorators on or off: they are transparent, the
// optional codec interfaces survive wrapping, and ReadByte is forwarded
// (or the frame decoder would read ahead into the plan-prior trailer and
// the round would fail).
func TestWorkloadsRepeatAndTracingIsTransparent(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			first := mustRun(t, small(wl, nil))
			if first.violations != 0 {
				t.Fatalf("%d bound violations", first.violations)
			}
			tr := newTracer()
			var traced *fedResult
			for what, spec := range map[string]runSpec{"again": small(wl, nil), "traced": small(wl, tr)} {
				got := mustRun(t, spec)
				if spec.tr != nil {
					traced = got
				}
				if got.upBytes != first.upBytes || got.downBytes != first.downBytes {
					t.Errorf("%s: wire bytes %d up %d down, first run %d up %d down", what, got.upBytes, got.downBytes, first.upBytes, first.downBytes)
				}
				if got.globalHash != first.globalHash {
					t.Errorf("%s: global %016x, first run %016x", what, got.globalHash, first.globalHash)
				}
				if got.violations != 0 {
					t.Errorf("%s: %d bound violations", what, got.violations)
				}
			}
			m := tr.layerMetrics(traced, wl)
			if c := m["trace.coverage_frac"]; c < 0.95 || c > 1.05 {
				t.Errorf("phases cover %.3f of the round", c)
			}
			if m["fl.encode_self_s"] <= 0 || m["transport.uplink_write_s"] <= 0 || m["client.train_s"] <= 0 {
				t.Errorf("leaf spans missing: %v", m)
			}
			if wl.hier != (m["hier.partial_wire_bytes"] > 0) {
				t.Errorf("hier.partial_wire_bytes = %v on hier=%v", m["hier.partial_wire_bytes"], wl.hier)
			}
		})
	}
}

// The audit can fail: a codec that honours a bound ten times looser than
// the one the audit holds it to is caught.
func TestAuditCatchesALooseBound(t *testing.T) {
	spec := small(workloads[0], nil)
	spec.codec = func() (fl.Codec, error) {
		return fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(10 * core.DefaultBound)})
	}
	res := mustRun(t, spec)
	if res.violations == 0 {
		t.Fatal("no bound violations from a REL 1e-1 codec audited at REL 1e-2")
	}
}

// The benchmark must survive the simplicity work ROADMAP item 4
// schedules: it may not depend on the packages and symbols to be deleted.
func TestImportGuard(t *testing.T) {
	deps, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, pkg := range []string{"fedsz/internal/bench", "fedsz/internal/baseline"} {
		for _, dep := range strings.Fields(string(deps)) {
			if dep == pkg {
				t.Errorf("the benchmark depends on %s", pkg)
			}
		}
	}
	doomed := []string{"transport.NewServer", "WriteFrame", "ReadFrame", "lossy.Register", "lossy.MustRegister",
		"huffman.Encode(", "huffman.Decode(", "fl.RunSim"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range doomed {
			if bytes.Contains(src, []byte(sym)) {
				t.Errorf("%s names %s", file, sym)
			}
		}
	}
}

// BENCHMARK.json repeats the workload and metric tables of this package.
func TestBenchmarkJSONInStep(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(contract.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := contract.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want %s: %s", i, got, wl.name, wl.why)
		}
	}
	for what, pair := range map[string][2][]metricDef{"end_to_end": {contract.EndToEnd, endToEnd}, "per_layer": {contract.PerLayer, perLayer}} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", what, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %+v, want %+v", what, got[i], want[i])
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50, cpu, rss float64) string {
		f := suiteFile{Workloads: map[string]map[string]value{"flat_lan": {
			"round_wall_p50_s": {Value: p50, Unit: "s"},
			"cpu_s_per_round":  {Value: cpu, Unit: "s"},
			"peak_rss_mb":      {Value: rss, Unit: "MB"},
		}}}
		buf, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Ten pairs: p50 gets 30 % worse, cpu 30 % better, rss is too noisy to call.
	var a, b []string
	for i := 0; i < 10; i++ {
		jitter := float64(i) * 1e-4
		a = append(a, write(fmt.Sprintf("a%d", i), 0.200+jitter, 0.400+jitter, 100+50*float64(i)))
		b = append(b, write(fmt.Sprintf("b%d", i), 0.260+jitter, 0.280+jitter, 100+50*float64(i)))
	}
	args := append(append(a, "vs"), b...)
	var out bytes.Buffer
	regressed, err := runCompare(&out, args)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 30 % slower round was not reported as a regression")
	}
	for metric, verdict := range map[string]string{"round_wall_p50_s": "regressed", "cpu_s_per_round": "improved", "peak_rss_mb": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.Contains(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not reported as %s:\n%s", metric, verdict, out.String())
		}
	}
}
