package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runCompare is -compare: the noise-aware comparison of two sets of
// suite files, A (the parent) before the literal argument "vs" and B
// (the change) after it. For every end-to-end metric and workload it
// prints each side's median and quartiles, the share of pairs (A's i-th
// file against B's i-th) that B wins, and a verdict against the metric's
// bound: regressed (B's median worse by more than the bound), unresolved
// (either side's quartile spread is wider than the bound), improved (at
// least ten pairs, B wins nine tenths of them and the medians differ by
// more than A's own spread) or unchanged. It reports whether anything
// regressed.
func runCompare(w io.Writer, args []string) (regressed bool, err error) {
	var sides [2][]suiteFile
	side := 0
	for _, arg := range args {
		if arg == "vs" {
			side++
			if side > 1 {
				return false, fmt.Errorf("compare: more than one \"vs\"")
			}
			continue
		}
		buf, err := os.ReadFile(arg)
		if err != nil {
			return false, err
		}
		var f suiteFile
		if err := json.Unmarshal(buf, &f); err != nil {
			return false, fmt.Errorf("compare: %s: %w", arg, err)
		}
		sides[side] = append(sides[side], f)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		return false, fmt.Errorf("compare: want A.json ... vs B.json ...")
	}

	fmt.Fprintf(w, "%-12s %-26s %12s %12s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "wins", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := samples(sides[0], wl.name, d.Name), samples(sides[1], wl.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse := func(x, y float64) bool { // x worse than y
				if d.Better == "higher" {
					return x < y
				}
				return x > y
			}
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			wins, pairs := 0, min(len(a), len(b))
			for i := 0; i < pairs; i++ {
				if worse(a[i], b[i]) {
					wins++
				}
			}
			verdict := "unchanged"
			switch {
			case worse(bmed, amed) && math.Abs(bmed-amed) > d.Bound*amed:
				verdict = "regressed"
				regressed = true
			case aq3-aq1 > d.Bound*amed || bq3-bq1 > d.Bound*bmed:
				verdict = "unresolved (spread > bound)"
			case pairs >= 10 && worse(amed, bmed) && float64(wins) >= 0.9*float64(pairs) && math.Abs(bmed-amed) > aq3-aq1:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-12s %-26s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-2d  %s\n",
				wl.name, d.Name, aq1, amed, aq3, bq1, bmed, bq3, wins, pairs, verdict)
		}
	}
	return regressed, nil
}

func samples(files []suiteFile, workload, metric string) []float64 {
	var out []float64
	for _, f := range files {
		if v, ok := f.Workloads[workload][metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles cuts xs as Python's statistics.quantiles(xs, n=4) does, so
// a spread computed here matches the one the driver computes. A single
// sample is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
