// Command fedsztop is a polling terminal dashboard for a running
// federation: point it at one or more observability endpoints
// (fedszserver/fedszedge/fedszclient -metrics-addr) and it renders
// live round progress, per-region commit/drop/byte columns, the
// critical-path attribution of the latest round, and sparkline trends
// for round latency, compression ratio and wire bytes. Plain ANSI on
// stdout, stdlib only — it works over ssh and inside tmux.
//
//	fedsztop -addrs localhost:9090,localhost:9091
//	fedsztop -addrs localhost:9090 -once        # one snapshot, no ANSI clear
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"fedsz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fedsztop:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addrs    = flag.String("addrs", "localhost:9090", "comma-separated observability endpoints to scrape")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "render one snapshot and exit (no screen clearing; smoke tests use this)")
		rounds   = flag.Int("n", 32, "rounds of trace to fetch per endpoint (trend window)")
	)
	flag.Parse()

	var targets []*target
	for _, a := range strings.Split(*addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			targets = append(targets, &target{addr: a})
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("no endpoints in -addrs")
	}
	client := &http.Client{Timeout: 5 * time.Second}

	for {
		var b strings.Builder
		if !*once {
			b.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Fprintf(&b, "\x1b[1mfedsztop\x1b[0m  %d endpoint(s)  %s\n",
			len(targets), time.Now().Format("15:04:05"))
		for _, t := range targets {
			t.scrape(client, *rounds)
			t.render(&b)
		}
		os.Stdout.WriteString(b.String())
		if *once {
			return nil
		}
		time.Sleep(*interval)
	}
}

// target is one scraped endpoint plus the trend history fedsztop
// accumulates across polls.
type target struct {
	addr    string
	err     error
	trees   []fedsz.Tree       // newest last
	metrics map[string]float64 // series name{labels} -> value
	ratios  []float64          // fedsz_core_ratio across polls
}

func (t *target) scrape(client *http.Client, n int) {
	t.err = nil
	t.trees = nil
	body, err := get(client, t.addr, fmt.Sprintf("/rounds/tree?n=%d", n))
	if err != nil {
		t.err = err
		return
	}
	if err := json.Unmarshal(body, &t.trees); err != nil {
		t.err = fmt.Errorf("parse /rounds/tree: %w", err)
		return
	}
	raw, err := get(client, t.addr, "/metrics")
	if err != nil {
		t.err = err
		return
	}
	t.metrics = parseMetrics(string(raw))
	if r, ok := t.metrics[`fedsz_core_ratio{dir="encode"}`]; ok {
		t.ratios = append(t.ratios, r)
	} else if r, ok := t.metrics["fedsz_core_ratio"]; ok {
		t.ratios = append(t.ratios, r)
	}
	if len(t.ratios) > 64 {
		t.ratios = t.ratios[len(t.ratios)-64:]
	}
}

func get(client *http.Client, addr, path string) ([]byte, error) {
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// parseMetrics reads Prometheus text exposition into a flat
// series -> value map (comments skipped, full label set kept).
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// metricSum sums every series of one family (any label set).
func (t *target) metricSum(family string) float64 {
	var sum float64
	for k, v := range t.metrics {
		if k == family || strings.HasPrefix(k, family+"{") {
			sum += v
		}
	}
	return sum
}

func (t *target) render(b *strings.Builder) {
	fmt.Fprintf(b, "\n\x1b[1m── %s ──\x1b[0m\n", t.addr)
	if t.err != nil {
		fmt.Fprintf(b, "  unreachable: %v\n", t.err)
		return
	}
	if len(t.trees) == 0 {
		fmt.Fprintf(b, "  no rounds traced yet\n")
		return
	}
	cur := t.trees[len(t.trees)-1]
	root := cur.Root
	pct := 0.0
	if cur.WallNs > 0 {
		pct = 100 * float64(cur.CriticalNs) / float64(cur.WallNs)
	}
	// down: how the global reached this tier's participants — the ratio
	// of an error-bounded frame, or raw.
	down := "raw"
	if d := root.Down; d != nil && d.Mode != "raw" && d.WireBytes > 0 {
		down = fmt.Sprintf("%.1f×", float64(d.RawBytes)/float64(d.WireBytes))
	}
	fmt.Fprintf(b, "  %s round %d   wall %s   critical %s (%.0f%%)   committed %d/%d  dropped %d   down %s\n",
		root.Tier, cur.Round, ms(cur.WallNs), ms(cur.CriticalNs), pct,
		root.Committed, root.Sampled, root.Dropped, down)

	// Critical-path attribution: where the latest round's wall time went.
	if len(cur.CriticalPath) > 0 {
		segs := make([]string, 0, len(cur.CriticalPath))
		for _, s := range cur.CriticalPath {
			name := s.Tier
			if s.ID != "" {
				name += ":" + s.ID
			}
			segs = append(segs, fmt.Sprintf("%s/%s %s", name, s.Phase, ms(s.Ns)))
		}
		fmt.Fprintf(b, "  critical: %s\n", strings.Join(segs, " → "))
	}

	// Per-participant columns (regions first, then clients, by id).
	if len(root.Participants) > 0 {
		fmt.Fprintf(b, "  %-12s %-12s %8s %8s %9s %9s  %s\n",
			"participant", "outcome", "commit", "drop", "up", "settle", "slack")
		for _, p := range root.Participants {
			commit, drop := "-", "-"
			if p.Region != nil {
				commit = strconv.Itoa(p.Region.Committed)
				drop = strconv.Itoa(p.Region.Dropped)
			}
			mark := " "
			if p.Critical {
				mark = "\x1b[1m*\x1b[0m"
			}
			fmt.Fprintf(b, "  %-12s %-12s %8s %8s %9s %9s  %s%s\n",
				p.ID, p.Outcome, commit, drop, bytesStr(p.BytesUp), ms(p.TimeNs), ms(p.SlackNs), mark)
		}
	}

	// Trends over the fetched trace window plus scrape history.
	walls := make([]float64, 0, len(t.trees))
	ups := make([]float64, 0, len(t.trees))
	for _, tr := range t.trees {
		walls = append(walls, float64(tr.WallNs))
		if tr.Root != nil {
			ups = append(ups, float64(tr.Root.BytesUp))
		}
	}
	fmt.Fprintf(b, "  round-wall %s   bytes-up %s", spark(walls), spark(ups))
	if len(t.ratios) > 0 {
		fmt.Fprintf(b, "   ratio %.2fx %s", t.ratios[len(t.ratios)-1], spark(t.ratios))
	}
	b.WriteByte('\n')
	fmt.Fprintf(b, "  totals: rounds %.0f  drops %.0f  tx %s  rx %s\n",
		t.metricSum("fedsz_rounds_committed_total"),
		t.metricSum("fedsz_drops_total"),
		bytesStr(int64(t.metrics[`fedsz_transport_bytes_total{dir="tx"}`])),
		bytesStr(int64(t.metrics[`fedsz_transport_bytes_total{dir="rx"}`])))
}

// spark renders values as a sparkline, scaled to the window's range.
func spark(vals []float64) string {
	const levels = "▁▂▃▄▅▆▇█"
	if len(vals) == 0 {
		return "-"
	}
	if len(vals) > 32 {
		vals = vals[len(vals)-32:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * 7)
		}
		b.WriteRune([]rune(levels)[i])
	}
	return b.String()
}

func ms(ns int64) string {
	switch {
	case ns <= 0:
		return "0"
	case ns < 1e6:
		return fmt.Sprintf("%.2gms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.0fms", float64(ns)/1e6)
	}
}

func bytesStr(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
