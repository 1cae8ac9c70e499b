package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bpar/internal/analysis"
	"bpar/internal/graphlint"
	"bpar/internal/prof"
)

// graphOptions configures the -graph mode.
type graphOptions struct {
	src    string
	dotDir string
}

// runGraph verifies static template dumps (bpar-train -dump-templates) with
// the graphlint passes, optionally grounded by the undeclaredwrite source pass:
// the AST summaries prove declarations exhaustive, graphlint proves the
// declared pairs ordered. Returns the number of diagnostics printed.
func runGraph(files []string, o graphOptions) int {
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "bpar-vet: -graph needs at least one template dump file")
		os.Exit(2)
	}
	nDiags := 0
	for _, path := range files {
		df, err := prof.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpar-vet: %v\n", err)
			os.Exit(2)
		}
		for ti := range df.Templates {
			d := &df.Templates[ti]
			if len(d.Keys) == 0 && len(d.Nodes) > 0 {
				fmt.Fprintf(os.Stderr, "bpar-vet: %s: template %q records no dependency keys: a profile, not a -dump-templates file\n", path, d.Name)
				os.Exit(2)
			}
			res := graphlint.Check(d)
			for _, diag := range res.Diags {
				fmt.Println(diag)
			}
			nDiags += len(res.Diags)
			fmt.Printf("%s: %d nodes, %d edges (%d derived, %.1f%% pruned), %d same-key pairs ordered\n",
				d.Name, res.Nodes, res.FrozenEdges, res.FullEdges, res.PrunedPct(), res.KeyPairs)
			if o.dotDir != "" {
				if err := writeDot(o.dotDir, d); err != nil {
					fmt.Fprintf(os.Stderr, "bpar-vet: %v\n", err)
					os.Exit(2)
				}
			}
		}
	}
	if o.src != "" {
		nDiags += runGraphSourceJoin(o.src)
	}
	return nDiags
}

// runGraphSourceJoin runs the undeclaredwrite source pass over the packages
// the dumped templates were emitted from. Without it the happens-before proof
// is only as strong as the declarations; with it, an undeclared tensor write
// — the one race the graph cannot see — is caught at the source level.
func runGraphSourceJoin(patterns string) int {
	var pass []analysis.Pass
	for _, p := range analysis.Passes() {
		if p.Name == "undeclaredwrite" {
			pass = append(pass, p)
		}
	}
	prog, err := analysis.NewLoader("").Load(strings.Fields(patterns)...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpar-vet: -graph-src: %v\n", err)
		os.Exit(2)
	}
	diags := prog.Run(pass)
	for _, d := range diags {
		fmt.Println(d)
	}
	return len(diags)
}

// writeDot renders one template as Graphviz DOT under dir, named after the
// template with path-hostile characters replaced.
func writeDot(dir string, d *prof.TemplateData) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, d.Name)
	path := filepath.Join(dir, slug+".dot")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Graph().WriteDOT(f, d.Name); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
