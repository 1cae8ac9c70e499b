package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// passEmitterBarrier flags barrier-like full synchronization inside the
// graph emitters. The paper's core claim (§IV) is that replacing per-stage
// barriers with point-to-point dependency edges is what exposes the wavefront
// parallelism; a Wait inside emit_forward.go, emit_backward.go, or merge.go
// reintroduces exactly the serialization the design removed, and
// costs throughput silently — nothing is incorrect, just slow.
var passEmitterBarrier = Pass{
	Name: "emitterbarrier",
	Doc:  "full-graph synchronization (Wait) inside an emitter file",
	Run:  runEmitterBarrier,
}

// emitterFiles are matched by basename so the check follows the files if the
// package moves (and so test fixtures can trigger it).
var emitterFiles = map[string]bool{
	"emit_forward.go":  true,
	"emit_backward.go": true,
	"merge.go":         true,
}

func runEmitterBarrier(p *Program, u *Unit) []Diagnostic {
	var diags []Diagnostic
	for _, f := range u.Files {
		base := filepath.Base(u.Fset.Position(f.Pos()).Filename)
		if !emitterFiles[base] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
			if !ok || !isTaskrtPkg(fn.Pkg()) {
				return true
			}
			if name := fn.Name(); name == "Wait" {
				diags = append(diags, Diagnostic{
					Pos:     u.Fset.Position(call.Pos()),
					Pass:    "emitterbarrier",
					Message: fmt.Sprintf("%s inside emitter %s acts as a barrier: emitters must only declare dependency edges, never synchronize (Paper §IV)", name, base),
				})
			}
			return true
		})
	}
	return diags
}
