package main

// Each experiment regenerates one table or figure of the paper's
// evaluation section (the README's "Reproducing the paper" lists them):
// a function from Options to a renderable Table.

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// Options tune experiment cost. The zero value is defaulted to a
// laptop-friendly configuration; Scale=1 reproduces paper-scale models.
type Options struct {
	// Scale is the model width divisor: 1 = full AlexNet/ResNet50/
	// MobileNetV2 (hundreds of MB, minutes), 8 = fast default.
	Scale int
	// Seed drives all stochastic components.
	Seed int64
	// Quick trims rounds/sweeps for use inside unit tests.
	Quick bool
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 8
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - utf8.RuneCountInString(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		return b.String()
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV (header row first) for plotting
// pipelines.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Runner is one experiment entry point.
type Runner func(Options) (*Table, error)

// experiments maps experiment ids to runners.
func experiments() map[string]Runner {
	return map[string]Runner{
		"ablations": Ablations,
		"table1":    Table1,
		"table2":    Table2,
		"table3":    Table3,
		"table5":    Table5,
		"fig2":      Fig2,
		"fig3":      Fig3,
		"fig4":      Fig4,
		"fig5":      Fig5,
		"fig6":      Fig6,
		"fig7":      Fig7,
		"fig8":      Fig8,
		"fig9":      Fig9,
		"fig10":     Fig10,
	}
}

// ids lists a registry's experiment ids in a stable order.
func ids(exps map[string]Runner) []string {
	out := make([]string, 0, len(exps))
	for id := range exps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// formatting helpers shared by the runners.

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

func mb(bytes int64) string { return fmt.Sprintf("%.1fMB", float64(bytes)/1e6) }

func secs(d float64) string { return fmt.Sprintf("%.3fs", d) }
