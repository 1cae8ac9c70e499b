package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// passLifecycle flags Replay/SubmitAll calls that appear, in source order
// within one function, after a Shutdown of the same runtime variable. After
// Shutdown the worker pool is gone; the runtime panics at run time (see
// taskrt.Runtime.Replay, which SubmitAll calls), but catching it statically
// turns a crash into a vet diagnostic. Wait is not terminal: a runtime
// accepts new replays after Wait returns.
var passLifecycle = Pass{
	Name: "lifecycle",
	Doc:  "Replay/SubmitAll after Shutdown on the same runtime",
	Run:  runLifecycle,
}

func runLifecycle(p *Program, u *Unit) []Diagnostic {
	var diags []Diagnostic
	for _, f := range u.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, lifecycleInFunc(u, fd)...)
		}
	}
	return diags
}

func lifecycleInFunc(u *Unit, fd *ast.FuncDecl) []Diagnostic {
	// First sweep: the earliest Shutdown per runtime object.
	// Deferred calls don't count — `defer rt.Shutdown()` runs after every
	// Replay in the function body.
	ended := map[types.Object]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, obj := taskrtMethodCall(u.Info, call)
		if name != "Shutdown" || obj == nil {
			return true
		}
		if prev, seen := ended[obj]; !seen || call.Pos() < prev {
			ended[obj] = call.Pos()
		}
		return true
	})
	if len(ended) == 0 {
		return nil
	}

	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, obj := taskrtMethodCall(u.Info, call)
		if name != "SubmitAll" && name != "Replay" {
			return true
		}
		end, seen := ended[obj]
		if !seen || call.Pos() <= end {
			return true
		}
		diags = append(diags, Diagnostic{
			Pos:     u.Fset.Position(call.Pos()),
			Pass:    "lifecycle",
			Message: fmt.Sprintf("%s after Shutdown on %q (line %d): the worker pool is gone, this panics at run time", name, obj.Name(), u.Fset.Position(end).Line),
		})
		return true
	})
	return diags
}

// taskrtMethodCall returns the method name and receiver root object when
// call is a method call declared in the taskrt package (Runtime methods or
// the Executor interface); ("", nil) otherwise.
func taskrtMethodCall(info *types.Info, call *ast.CallExpr) (string, types.Object) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || !isTaskrtPkg(fn.Pkg()) {
		return "", nil
	}
	root, ok := rootOf(info, sel.X)
	if !ok || root.field != "" {
		// Only track plain variables: field-held runtimes may be shared
		// across functions, where source order proves nothing.
		return fn.Name(), nil
	}
	return fn.Name(), root.obj
}
