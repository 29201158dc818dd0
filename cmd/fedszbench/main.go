// Command fedszbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fedszbench -exp table1            # one experiment
//	fedszbench -exp all -scale 4      # everything, quarter-width models
//	fedszbench -list                  # show experiment ids
//	fedszbench -exp fig8 -format csv -o fig8.csv
//
// Scale 1 reproduces paper-size models (AlexNet ≈244 MB — minutes per
// experiment); the default scale 8 finishes each experiment in seconds
// while preserving every qualitative shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"fedsz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, experiments()); err != nil {
		fmt.Fprintln(os.Stderr, "fedszbench:", err)
		os.Exit(1)
	}
}

// run parses args and runs the selected experiments of exps, writing
// their tables to stdout unless -o names a file. Every flag is checked
// before the first experiment starts.
func run(args []string, stdout io.Writer, exps map[string]Runner) error {
	fs := flag.NewFlagSet("fedszbench", flag.ExitOnError)
	var (
		exp    = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		scale  = fs.Int("scale", 8, "model width divisor (1 = paper scale)")
		seed   = fs.Int64("seed", 42, "random seed")
		quick  = fs.Bool("quick", false, "trim sweeps for a fast smoke run")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		format = fs.String("format", "text", "output format: text or csv")
		out    = fs.String("o", "", "write output to a file instead of stdout")
		cpu    = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		mem    = fs.String("memprofile", "", "write an allocation profile taken after the run to this file")
		mdump  = fs.Bool("metrics-dump", false, "after the run, print the process metrics registry (Prometheus text) to stderr")
	)
	fs.StringVar(exp, "experiment", *exp, "alias for -exp")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits instead of returning

	if *list {
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range ids(exps) {
			fmt.Fprintln(stdout, " ", id)
		}
		return nil
	}

	render, ok := map[string]func(*Table, io.Writer) error{
		"text": (*Table).Render,
		"csv":  (*Table).RenderCSV,
	}[*format]
	if !ok {
		return fmt.Errorf("unknown format %q (have text, csv)", *format)
	}
	names := ids(exps)
	if *exp != "all" {
		if _, ok := exps[*exp]; !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", *exp, strings.Join(names, ", "))
		}
		names = []string{*exp}
	}

	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *mem != "" {
		f, err := os.Create(*mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // flush recently freed objects out of the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fedszbench: memprofile:", err)
			}
			f.Close()
		}()
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	opts := Options{Scale: *scale, Seed: *seed, Quick: *quick}
	if *mdump {
		// The dump goes to stderr so -o/-format table output stays
		// machine-parseable.
		defer fedsz.WriteMetrics(os.Stderr)
	}
	for _, id := range names {
		tab, err := exps[id](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := render(tab, w); err != nil {
			return err
		}
	}
	return nil
}
