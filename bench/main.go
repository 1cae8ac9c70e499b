// Command bench is the repository's benchmark: five B-Par workloads, each
// measured end to end with tracing off and layer by layer with it on, with
// output oracles and a reconciliation check that the layers add up. See
// README.md in this directory.
//
//	go run ./bench -seed 1 -out BENCH.json       # every workload, both passes
//	go run ./bench -workload NAME -trace 0|1     # one pass of one workload
//	go run ./bench -compare old.json new.json    # apply the regression bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bpar/internal/obs"
)

// procs is the parallelism of everything the benchmark builds: GOMAXPROCS,
// every taskrt runtime's workers, and the HTTP connection pool.
var procs = min(runtime.NumCPU(), 4)

// rateWindows is how many equal windows a throughput is the median of.
const rateWindows = 5

// reconBound is how far the layers may fail to add up to the end-to-end
// number before the traced pass fails the run.
const reconBound = 0.15

// logw receives progress and per-phase notes; results go to stdout.
var logw io.Writer = os.Stderr

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one pass of this workload and print the contract's result line (default: every workload, both passes)")
	seed := fs.Uint64("seed", 1, "seed of every generated input: weights, frames, lengths, arrival schedule")
	seconds := fs.Int("seconds", 15, "how long one pass of one workload measures")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	out := fs.String("out", "", "without -workload: write the trajectory point to this file")
	compare := fs.Bool("compare", false, "compare two trajectory files: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files: old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if err := obs.InitLogging(os.Stderr, "warn"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	d := time.Duration(*seconds) * time.Second

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return runOne(w, *seed, d, *trace != 0)
	}
	return runAll(*seed, *seconds, *out)
}

// pass runs one pass of one workload.
func pass(w *workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	// Start from an empty heap that owes the OS nothing: after an earlier
	// pass in this process (the roofline alone frees 1 GiB) the runtime would
	// otherwise return memory in the background while this pass sets up.
	debug.FreeOSMemory()
	switch {
	case w.serve && traced:
		return runServeLayers(w, seed, d)
	case w.serve:
		return runServe(w, seed, d)
	case traced:
		return runTrainLayers(w, seed, d)
	default:
		return runTrain(w, seed, d)
	}
}

// reconcile is the self-check of the traced pass: the layers must add up to
// the end-to-end number within reconBound.
func reconcile(w *workload, m metrics) error {
	name := "core.recon_err_frac"
	if w.serve {
		name = "serve.recon_err_frac"
	}
	if v := m.val(name); v > reconBound {
		return fmt.Errorf("workload %s: %s = %.3f exceeds %.2f: the layers do not add up to the end-to-end time", w.name, name, v, reconBound)
	}
	return nil
}

// runOne is the contract's entry: one pass, every metric printed by name,
// then the result object as the last line of standard output.
func runOne(w *workload, seed uint64, d time.Duration, traced bool) int {
	r, err := pass(w, seed, d, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	r.Metrics.print(logw, "  ")
	if traced {
		if err := reconcile(w, r.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: contractMetrics(w, r.Metrics, traced)}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}

// runAll measures one trajectory point: every workload untraced, then
// traced, printed and written to out.
func runAll(seed uint64, seconds int, out string) int {
	d := time.Duration(seconds) * time.Second
	rep := &report{
		Version: reportVersion, Seed: seed, Seconds: seconds, Procs: procs,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workloads: make(map[string]*workloadReport),
	}
	status := 0
	for _, w := range workloads {
		fmt.Fprintf(logw, "%s: untraced pass\n", w.name)
		e2e, err := pass(w, seed, d, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(logw, "%s: traced pass\n", w.name)
		layers, err := pass(w, seed, d, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		wr := &workloadReport{
			Attempted: e2e.Attempted + layers.Attempted,
			Failed:    e2e.Failed + layers.Failed,
			EndToEnd:  e2e.Metrics,
			PerLayer:  layers.Metrics,
		}
		// The open-loop median is an end-to-end number measured on the
		// traced pass's untraced reference server.
		if v, ok := layers.Metrics["serve.open_p50_ms"]; ok {
			wr.EndToEnd["open_p50_ms"] = v
			delete(wr.PerLayer, "serve.open_p50_ms")
		}
		wr.EndToEnd.set("fail_frac", float64(wr.Failed)/float64(wr.Attempted), "share")
		rep.Workloads[w.name] = wr

		fmt.Printf("%s  attempted %d failed %d\n", w.name, wr.Attempted, wr.Failed)
		wr.EndToEnd.print(os.Stdout, "  ")
		wr.PerLayer.print(os.Stdout, "  ")
		if err := reconcile(w, layers.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			status = 1
		}
		if wr.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %d of %d operations failed or gave a wrong answer\n", w.name, wr.Failed, wr.Attempted)
			status = 1
		}
	}
	if out != "" {
		if err := rep.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}
