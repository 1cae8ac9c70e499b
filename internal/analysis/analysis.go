// Package analysis implements bpar-vet's domain-specific static checks.
//
// The passes encode the correctness contract of the B-Par execution model
// (Paper §IV): synchronization exists only along declared data-dependency
// edges, so a task that touches state it did not declare — or a builder that
// reuses a key by value, re-submits after teardown, or sneaks a barrier into
// an emitter — silently breaks the model in ways neither the compiler nor
// the race detector reliably sees. Each pass maps one such OmpSs-pragma-
// style mistake onto Go source. One pass, unusedexport, guards the code
// base instead: exported API that only tests use.
//
// Everything here is standard library only: packages are loaded through
// `go list -export -deps -json`, type-checked with go/types against the
// compiler's export data, and inspected with go/ast.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Pass, d.Message)
}

// Unit is one type-checked package under analysis: its syntax, type
// information, and package object.
type Unit struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Pass is one named check over a unit. Passes that need cross-package
// context (function mutation summaries) receive every unit via Program.
type Pass struct {
	Name string
	Doc  string
	Run  func(p *Program, u *Unit) []Diagnostic
}

// Program is the full set of units under analysis plus shared, lazily
// computed facts.
type Program struct {
	Units []*Unit

	summaries map[string]*mutSummary // see undeclaredwrite.go

	// dir and module locate the main module of a Load; empty for programs
	// built by hand, whose units are then the whole world.
	dir, module string
	unused      map[string][]Diagnostic // see unusedexport.go
}

// Passes returns every registered pass in reporting order.
func Passes() []Pass {
	return []Pass{
		passUndeclaredWrite,
		passDepKey,
		passLifecycle,
		passEmitterBarrier,
		passStaleCapture,
		passErrcheck,
		passUnusedExport,
	}
}

// Run executes the given passes over every unit and returns diagnostics
// sorted by position.
func (p *Program) Run(passes []Pass) []Diagnostic {
	var out []Diagnostic
	for _, u := range p.Units {
		for _, pass := range passes {
			out = append(out, pass.Run(p, u)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Message < out[j].Message
	})
	return out
}
