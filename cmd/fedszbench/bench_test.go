package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quickOpts keeps experiment runtime test-friendly.
func quickOpts() Options {
	return Options{Scale: 16, Seed: 7, Quick: true}
}

func runExperiment(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := experiments()[id](quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("table id %q != %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("%s row %d has %d cells, header has %d", id, i, len(row), len(tab.Header))
		}
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	if !strings.Contains(buf.String(), tab.Title) {
		t.Fatalf("%s render missing title", id)
	}
	return tab
}

func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range ids(experiments()) {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runExperiment(t, id)
		})
	}
}

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not found in %v", col, tab.Header)
	return ""
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestTable1Shape checks the load-bearing orderings of Table I:
// SZx* ratio is bound-independent and its accuracy collapses to chance,
// while SZ2 holds accuracy.
func TestTable1Shape(t *testing.T) {
	tab := runExperiment(t, "table1")
	var szxAccs, sz2Accs []float64
	for r := range tab.Rows {
		switch cell(t, tab, r, "Compressor") {
		case "szx*":
			szxAccs = append(szxAccs, parseF(t, cell(t, tab, r, "Top-1Acc")))
		case "sz2":
			sz2Accs = append(sz2Accs, parseF(t, cell(t, tab, r, "Top-1Acc")))
		}
	}
	if len(szxAccs) == 0 || len(sz2Accs) == 0 {
		t.Fatal("missing compressor rows")
	}
	for i := range szxAccs {
		// At quick scale one local epoch partially relearns after the
		// artifact mangling, so the collapse is relative rather than
		// all the way to chance (the 10-round fig4 run shows the full
		// divergence).
		if szxAccs[i] > sz2Accs[i]-10 {
			t.Errorf("szx* accuracy %.1f%% should trail sz2 %.1f%% by ≥10 points",
				szxAccs[i], sz2Accs[i])
		}
		if sz2Accs[i] < 25 {
			t.Errorf("sz2 accuracy %.1f%% should beat chance", sz2Accs[i])
		}
	}
}

// TestTable2Shape: blosclz is the fastest codec (paper Table II). It
// compares throughput, which unlike a short call's runtime rounded to
// the cell cannot tie.
func TestTable2Shape(t *testing.T) {
	tab := runExperiment(t, "table2")
	thpt := make(map[string]float64)
	for r := range tab.Rows {
		thpt[cell(t, tab, r, "Compressor")] = parseF(t, cell(t, tab, r, "Thpt(MB/s)"))
	}
	if _, ok := thpt["blosclz"]; !ok {
		t.Fatal("no blosclz row")
	}
	for name, v := range thpt {
		if name != "blosclz" && thpt["blosclz"] <= v {
			t.Errorf("blosclz (%.2f MB/s) should be fastest, %s ran %.2f MB/s", thpt["blosclz"], name, v)
		}
	}
	t.Logf("MB/s: %v", thpt)
}

// TestTable5Shape: ratios grow with the bound, AlexNet compresses best
// at 1e-2 (paper Table V).
func TestTable5Shape(t *testing.T) {
	tab := runExperiment(t, "table5")
	for r := range tab.Rows {
		loose := parseF(t, cell(t, tab, r, "1e-1"))
		tight := parseF(t, cell(t, tab, r, "1e-2"))
		if loose <= tight {
			t.Errorf("row %d: CR at 1e-1 (%.2f) should exceed 1e-2 (%.2f)", r, loose, tight)
		}
	}
}

// TestFig2Shape: scientific series are much smoother than parameters.
func TestFig2Shape(t *testing.T) {
	tab := runExperiment(t, "fig2")
	var paramMin, sciMax float64 = 1e9, 0
	for r := range tab.Rows {
		rough := parseF(t, cell(t, tab, r, "Roughness"))
		if strings.HasPrefix(cell(t, tab, r, "Series"), "params") {
			if rough < paramMin {
				paramMin = rough
			}
		} else if rough > sciMax {
			sciMax = rough
		}
	}
	if sciMax*3 > paramMin {
		t.Errorf("scientific roughness %.4f should be ≪ parameter roughness %.4f", sciMax, paramMin)
	}
}

// TestFig7Shape: compression must win at 10 Mbps for every model, and
// decisively for the largest (AlexNet). At quick scale the models are
// tiny, so fixed compression overhead caps the smaller models' speedup;
// the paper's ≈13× is a full-size figure (-exp fig7 -scale 1).
func TestFig7Shape(t *testing.T) {
	tab := runExperiment(t, "fig7")
	for r := range tab.Rows {
		sp := parseF(t, cell(t, tab, r, "Speedup"))
		if sp <= 1 {
			t.Errorf("row %d speedup %.2f: compression should win at 10 Mbps", r, sp)
		}
		// The race detector inflates real compression time ~10-20x but
		// not the simulated transfer time, so only the sp > 1 direction
		// is meaningful under -race.
		if cell(t, tab, r, "Model") == "alexnet" && sp < 3 && !raceEnabled {
			t.Errorf("alexnet speedup %.2f too low for 10 Mbps", sp)
		}
	}
}

// TestFig9Shape: FedSZ beats uncompressed at every scale.
func TestFig9Shape(t *testing.T) {
	tab := runExperiment(t, "fig9")
	for r := range tab.Rows {
		fsz := parseF(t, cell(t, tab, r, "FedSZ"))
		plain := parseF(t, cell(t, tab, r, "Uncompressed"))
		if fsz >= plain {
			t.Errorf("row %d: fedsz %.2fs should beat uncompressed %.2fs", r, fsz, plain)
		}
	}
}

// TestFig10Shape: Laplace wins at every bound.
func TestFig10Shape(t *testing.T) {
	tab := runExperiment(t, "fig10")
	for r := range tab.Rows {
		if cell(t, tab, r, "Preferred") != "laplace" {
			t.Errorf("row %d: expected Laplace-preferred residuals", r)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "t",
		Header: []string{"A", "B"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "A,B\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

// TestAblationLastStep: the §VIII last-step claim — top-k
// sparsification followed by FedSZ ships fewer bytes than FedSZ alone.
func TestAblationLastStep(t *testing.T) {
	tab := runExperiment(t, "ablations")
	size := map[string]float64{}
	for r, row := range tab.Rows {
		if row[0] == "last-step-composition" {
			size[cell(t, tab, r, "Variant")] = parseF(t, cell(t, tab, r, "Bytes"))
		}
	}
	for _, v := range []string{"fedsz-sz2 (default)", "plain", "topk:frac=0.1", "topk:frac=0.1→fedsz-sz2", "qsgd:bits=8→fedsz-sz2"} {
		if size[v] <= 0 {
			t.Fatalf("no %q row in %v", v, size)
		}
	}
	if stacked, alone := size["topk:frac=0.1→fedsz-sz2"], size["fedsz-sz2 (default)"]; stacked >= alone {
		t.Fatalf("topk→fedsz (%v bytes) should beat fedsz alone (%v)", stacked, alone)
	}
}
