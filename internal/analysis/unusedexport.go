package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"sort"
	"strings"
)

// passUnusedExport flags exported API under internal/ that only tests use
// (ROADMAP aim 2: every path earns its keep as the production path or as a
// named test oracle). It reports
//
//   - exported package-level names and methods that no non-test file of the
//     module references, and
//   - exported fields of exported structs that no non-test file writes, by
//     assignment, composite-literal key or &x.F: such a field is an option
//     with a single value in production.
//
// A method also counts as used when a value of its type is converted to an
// interface that has it (heap.Interface, types.Importer, error), or to any
// interface when the method is then found at run time: by a type assertion
// in the module, or as fmt's String or Error. Uses are indexed over every
// package of the module whatever the load pattern, so a narrow load reports
// for its packages exactly what a whole-module load does. unusedAllowlist
// keeps the oracles; an entry that matches nothing is reported as well.
var passUnusedExport = Pass{
	Name: "unusedexport",
	Doc:  "exported name or option field under internal/ that only tests use",
	Run: func(p *Program, u *Unit) []Diagnostic {
		return p.unusedExports(unusedAllowlist)[u.ImportPath]
	},
}

// unusedAllowlist maps the qualified name (package.Name, package.Type.Name)
// of an exported name that production code does not use to the reason it
// stays.
var unusedAllowlist = map[string]string{
	"tensor.MatMulNaive":           "the GEMM oracle every kernel test compares against",
	"tensor.Mat.Clone":             "the deep copy the tensor, cell and core tests snapshot operands with",
	"taskrt.Graph.CountKind":       "the per-kind task count the emitter shape tests assert on",
	"core.Engine.TrainStepBarrier": "the per-layer-barrier training step; ROADMAP item 2 gives it a caller",
	"experiments.Opts.CoreCounts":  "the 5-point core sweep the experiment goldens were recorded at",
	"analysis.Loader.CheckFixture": "type-checks the pass fixtures",
	"taskrt.Stats.LocalHits":       "always zero; bench/ reads it until bench/ opens (ROADMAP 1(f))",
	"taskrt.Stats.Steals":          "always zero; bench/ reads it until bench/ opens (ROADMAP 1(f))",
}

// useIndex is what the module's non-test code does with each name, keyed
// by memberKey/objKey so that objects from source and from export data
// agree.
type useIndex struct {
	used    map[string]bool // referenced names and methods
	written map[string]bool // struct fields assigned, keyed or addressed

	boxed    map[string]types.Type // concrete types converted to an interface
	asserted [][]string            // method names of the interfaces asserted to
}

// dynamic marks the methods found at run time: those of every interface
// the code type-asserts to, and fmt's String and Error, on every type
// converted to an interface that has them all.
func (ix *useIndex) dynamic() {
	for _, t := range ix.boxed {
		for _, names := range append(ix.asserted, []string{"String"}, []string{"Error"}) {
			var objs []types.Object
			for _, name := range names {
				if obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name); obj != nil {
					objs = append(objs, obj)
				}
			}
			if len(objs) == len(names) {
				for _, obj := range objs {
					ix.use(objKey(obj))
				}
			}
		}
	}
}

// unusedExports computes the pass once per program (allow is read on the
// first call): diagnostics keyed by the import path of the unit they
// belong to. Findings that belong to no
// declaration (stale allowlist entries, a failed module load) go to the
// first unit.
func (p *Program) unusedExports(allow map[string]string) map[string][]Diagnostic {
	if p.unused != nil {
		return p.unused
	}
	p.unused = map[string][]Diagnostic{}
	first := p.Units[0].ImportPath
	units, err := p.moduleUnits()
	if err != nil {
		p.unused[first] = []Diagnostic{{Pass: "unusedexport",
			Message: fmt.Sprintf("cannot index the module's uses: %v", err)}}
		return p.unused
	}
	ix := &useIndex{used: map[string]bool{}, written: map[string]bool{}, boxed: map[string]types.Type{}}
	for _, u := range units {
		ix.add(u)
	}
	ix.dynamic()

	matched := map[string]bool{}
	report := func(u *Unit, obj types.Object, name, msg string) {
		if _, ok := allow[name]; ok {
			matched[name] = true
			return
		}
		p.unused[u.ImportPath] = append(p.unused[u.ImportPath], Diagnostic{
			Pos: u.Fset.Position(obj.Pos()), Pass: "unusedexport",
			Message: fmt.Sprintf(msg, name),
		})
	}
	firstFile := map[string]token.Position{} // package name -> its first file
	for _, u := range units {
		if !strings.Contains(u.ImportPath+"/", "/internal/") {
			continue
		}
		firstFile[u.Pkg.Name()] = u.Fset.Position(u.Files[0].Package)
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			qual := u.Pkg.Name() + "." + name
			if obj.Exported() && !ix.used[objKey(obj)] {
				report(u, obj, qual, "no non-test code uses %s")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if !types.IsInterface(named) {
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !ix.used[objKey(m)] {
						report(u, m, qual+"."+m.Name(), "no non-test code uses %s")
					}
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !tn.Exported() {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && !ix.written[memberKey(named, f.Name())] {
					report(u, f, qual+"."+f.Name(), "no non-test code sets %s: an option with one value in production")
				}
			}
		}
	}

	stale := make([]string, 0, len(allow))
	for name := range allow {
		if !matched[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		pkg, _, _ := strings.Cut(name, ".")
		p.unused[first] = append(p.unused[first], Diagnostic{Pos: firstFile[pkg], Pass: "unusedexport",
			Message: fmt.Sprintf("allowlist entry %s matches no unused exported name", name)})
	}
	return p.unused
}

// moduleUnits returns a unit for every package of the main module: the
// program's own when its load covered them all, else a fresh load of the
// whole module, so that a narrow load still sees every caller. A program
// built by hand (fixtures) is taken as the whole module.
func (p *Program) moduleUnits() ([]*Unit, error) {
	if p.module == "" {
		return p.Units, nil
	}
	cmd := exec.Command("go", "list", "-f", "{{.ImportPath}}", p.module+"/...")
	cmd.Dir = p.dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s/...: %v", p.module, err)
	}
	have := map[string]bool{}
	for _, u := range p.Units {
		have[u.ImportPath] = true
	}
	for _, path := range strings.Fields(string(out)) {
		if !have[path] {
			whole, err := NewLoader(p.dir).Load(p.module + "/...")
			if err != nil {
				return nil, err
			}
			return whole.Units, nil
		}
	}
	return p.Units, nil
}

// objKey names a package-level object or a method the same way whether it
// came from source or from export data.
func objKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			return memberKey(recv.Type(), f.Name())
		}
	}
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// memberKey names the field or method name of the named type behind owner.
func memberKey(owner types.Type, name string) string {
	n := namedFrom(owner)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return objKey(n.Origin().Obj()) + "." + name
}

// fieldOwner returns the type that declares the field a selection picks,
// following the embedded fields it is promoted through.
func fieldOwner(s *types.Selection) types.Type {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		t = deref(t).Underlying().(*types.Struct).Field(i).Type()
	}
	return t
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if pt, ok := t.Underlying().(*types.Pointer); ok {
		return pt.Elem()
	}
	return t
}

// use records a reference by key. Keys are path.Name or path.Type.Member;
// a member key also marks its type, since a type whose method or field is
// used is used.
func (ix *useIndex) use(key string) {
	ix.used[key] = true
	slash := strings.LastIndex(key, "/")
	if i := strings.LastIndex(key, "."); i > slash {
		if j := strings.LastIndex(key[:i], "."); j > slash {
			ix.used[key[:i]] = true
		}
	}
}

// add indexes one unit's references, field writes and interface conversions.
func (ix *useIndex) add(u *Unit) {
	info := u.Info
	for _, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			continue // keyed literals and selections below name the owner
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() || isMethod(obj) {
			ix.use(objKey(obj))
		}
	}
	for sel, s := range info.Selections {
		if s.Kind() == types.FieldVal {
			ix.use(memberKey(fieldOwner(s), sel.Sel.Name))
		}
	}
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					ix.markWritten(info, lhs)
					if len(n.Lhs) == len(n.Rhs) {
						ix.convert(info.TypeOf(n.Rhs[i]), info.TypeOf(lhs))
					}
				}
			case *ast.IncDecStmt:
				ix.markWritten(info, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					ix.markWritten(info, n.X)
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						ix.convert(info.TypeOf(v), info.TypeOf(n.Type))
					}
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					ix.convert(info.TypeOf(n.Value), ch.Elem())
				}
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					ix.assert(info.TypeOf(n.Type))
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if tv := info.Types[e]; tv.IsType() {
						ix.assert(tv.Type)
					}
				}
			case *ast.CompositeLit:
				ix.compositeLit(info, n)
			case *ast.CallExpr:
				ix.call(info, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					ix.returns(info, n.Body, info.Defs[n.Name].Type().(*types.Signature))
				}
			case *ast.FuncLit:
				ix.returns(info, n.Body, info.TypeOf(n).(*types.Signature))
			}
			return true
		})
	}
}

func isMethod(obj types.Object) bool {
	f, ok := obj.(*types.Func)
	return ok && f.Type().(*types.Signature).Recv() != nil
}

// markWritten records every field on the selector chain an lvalue writes
// through: x.a.b[i] = v writes b and a.
func (ix *useIndex) markWritten(info *types.Info, e ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				ix.written[memberKey(fieldOwner(s), x.Sel.Name)] = true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// convert records an implicit or explicit conversion of a src value to dst:
// when dst is an interface, src's methods that implement it are used.
func (ix *useIndex) convert(src, dst types.Type) {
	if src == nil || dst == nil || types.IsInterface(src) {
		return
	}
	iface, ok := dst.Underlying().(*types.Interface)
	if !ok {
		return
	}
	if _, ok := src.(*types.Tuple); ok {
		return
	}
	ix.boxed[types.TypeString(src, nil)] = src
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(src, true, m.Pkg(), m.Name()); obj != nil {
			ix.use(objKey(obj))
		}
	}
}

// assert records a type assertion (or type-switch case) to t.
func (ix *useIndex) assert(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	names := make([]string, iface.NumMethods())
	for i := range names {
		names[i] = iface.Method(i).Name()
	}
	ix.asserted = append(ix.asserted, names)
}

// compositeLit records the fields a struct literal sets and the conversions
// of its elements to the element, key and field types.
func (ix *useIndex) compositeLit(info *types.Info, lit *ast.CompositeLit) {
	t := deref(info.TypeOf(lit))
	for i, el := range lit.Elts {
		v := el
		kv, _ := el.(*ast.KeyValueExpr)
		if kv != nil {
			v = kv.Value
		}
		switch ut := t.Underlying().(type) {
		case *types.Struct:
			var f *types.Var
			if kv != nil {
				f, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
			} else if i < ut.NumFields() {
				f = ut.Field(i)
			}
			if f != nil {
				ix.written[memberKey(t, f.Name())] = true
				ix.use(memberKey(t, f.Name()))
				ix.convert(info.TypeOf(v), f.Type())
			}
		case *types.Slice:
			ix.convert(info.TypeOf(v), ut.Elem())
		case *types.Array:
			ix.convert(info.TypeOf(v), ut.Elem())
		case *types.Map:
			ix.convert(info.TypeOf(kv.Key), ut.Key())
			ix.convert(info.TypeOf(v), ut.Elem())
		}
	}
}

// call records conversions of arguments to parameter types, and of the
// operand of an explicit conversion.
func (ix *useIndex) call(info *types.Info, call *ast.CallExpr) {
	tv := info.Types[call.Fun]
	if tv.IsType() {
		if len(call.Args) == 1 {
			ix.convert(info.TypeOf(call.Args[0]), tv.Type)
		}
		return
	}
	if tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.(*types.Slice); ok && !call.Ellipsis.IsValid() {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		ix.convert(info.TypeOf(a), pt)
	}
}

// returns records conversions of returned values to the result types of
// the function whose body this is (nested function literals excluded).
func (ix *useIndex) returns(info *types.Info, body *ast.BlockStmt, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(n.Results) == sig.Results().Len() {
				for i, r := range n.Results {
					ix.convert(info.TypeOf(r), sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}
