// Command bpar-vet is the domain-specific static analyzer for the B-Par
// task-parallel training engine. On top of what `go vet` sees, it checks the
// invariants the no-barrier execution model depends on (Paper §IV):
//
//	undeclaredwrite  task body writes a tensor whose key is missing from Out/InOut
//	depkey           value-typed dependency key in a []taskrt.Dep list
//	lifecycle        Replay/SubmitAll after Shutdown on the same runtime
//	emitterbarrier   Wait inside a graph-emitter file
//	stalecapture     per-step state frozen into a captured task graph
//	errcheck         discarded error result in a command package
//	unusedexport     exported name or option field under internal/ that only tests use
//
// unusedexport indexes uses over every package of the module whatever the
// package arguments, so a narrow load reports only what a whole-module load
// reports for the same packages. Its allowlist of kept test oracles lives in
// internal/analysis/unusedexport.go; an entry that matches nothing is
// reported too.
//
// With -graph, the arguments are static template dumps, written by
// bpar-train -dump-templates or Engine.DumpTemplates in the one dump format
// prof.Read reads (a -profile-out dump records no keys and is rejected).
// bpar-vet then runs the whole-graph verifier (internal/graphlint) over each
// frozen template: shape lints, verification that the frozen edge set is the
// exact transitive reduction of the derived dependencies, and a
// happens-before proof that every pair of tasks touching the same key is
// ordered. The undeclaredwrite source pass still runs over -graph-src
// (default ./...), because the graph proof is sound only if declarations are
// exhaustive; pass -graph-src "" to skip the source join.
//
// Usage:
//
//	bpar-vet [-pass name[,name]] [packages]
//	bpar-vet -graph [-dot dir] templates.json...
//
// Packages default to ./... . Exit status is 1 when diagnostics are found,
// 2 when loading or type-checking fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bpar/internal/analysis"
)

func main() {
	passList := flag.String("pass", "", "comma-separated pass names to run (default: all)")
	list := flag.Bool("list", false, "list available passes and exit")
	graph := flag.Bool("graph", false, "arguments are template dump files; run the whole-graph verifier instead of source passes")
	var gopt graphOptions
	flag.StringVar(&gopt.src, "graph-src", "./...", "with -graph: packages for the undeclaredwrite soundness join (\"\" skips it)")
	flag.StringVar(&gopt.dotDir, "dot", "", "with -graph: write one Graphviz .dot per template into this directory")
	flag.Parse()

	if *graph {
		if runGraph(flag.Args(), gopt) > 0 {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, p := range analysis.Passes() {
			fmt.Printf("%-16s %s\n", p.Name, p.Doc)
		}
		return
	}

	passes := analysis.Passes()
	if *passList != "" {
		want := map[string]bool{}
		for _, n := range strings.Split(*passList, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var sel []analysis.Pass
		for _, p := range passes {
			if want[p.Name] {
				sel = append(sel, p)
				delete(want, p.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "bpar-vet: unknown pass %q (see -list)\n", n)
			os.Exit(2)
		}
		passes = sel
	}

	patterns := flag.Args()
	loader := analysis.NewLoader("")
	prog, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpar-vet: %v\n", err)
		os.Exit(2)
	}

	diags := prog.Run(passes)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
