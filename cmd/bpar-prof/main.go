// Command bpar-prof reads a profile dump written by bpar-train or
// bpar-serve (-profile-out) and reports where a step's time actually goes:
// the measured critical path over the frozen replay template, per-node
// slack, span vs. work (attainable parallelism), the scheduling-overhead
// ratio against the paper's <10% bound, and per-worker idle time split into
// "waiting on dependencies" vs. "ready work existed". Idle attribution and
// calibration use the worker count the dump records.
//
// Usage:
//
//	bpar-prof profile.json                  # critical-path report
//	bpar-prof -top 20 profile.json          # more critical-path contributors
//	bpar-prof -chrome trace.json profile.json   # per-node timeline with dependency flows
//	bpar-prof -calibrate profile.json       # simulator vs. measurement on the same graph
package main

import (
	"flag"
	"fmt"
	"os"

	"bpar/internal/prof"
)

func main() {
	topK := flag.Int("top", 10, "critical-path contributor groups to print per template")
	chrome := flag.String("chrome", "", "also write a Chrome trace-event JSON of each template's last replay (with dependency flow events) to this file")
	calibrate := flag.Bool("calibrate", false, "feed the measured per-node durations into the discrete-event simulator and compare its makespan against the measured step time")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bpar-prof [flags] <profile.json>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *topK, *chrome, *calibrate); err != nil {
		fmt.Fprintln(os.Stderr, "bpar-prof:", err)
		os.Exit(1)
	}
}

func run(path string, topK int, chrome string, calibrate bool) error {
	pd, err := prof.ReadFile(path)
	if err != nil {
		return err
	}
	prof.WriteReport(os.Stdout, pd, topK)
	if calibrate {
		fmt.Println()
		if err := prof.WriteCalibration(os.Stdout, pd); err != nil {
			return err
		}
	}
	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			return err
		}
		if err := pd.WriteChromeTrace(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nchrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", chrome)
	}
	return nil
}
