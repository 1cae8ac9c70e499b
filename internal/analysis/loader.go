package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

// Loader loads packages for analysis: target packages are parsed and
// type-checked from source, while every dependency (stdlib and module alike)
// is imported from the compiler's export data, which `go list -export`
// produces as a side effect. This keeps the tool stdlib-only — no
// go/packages — at the cost of shelling out to the go tool once.
type Loader struct {
	Dir string // module directory to run `go list` in ("" = cwd)

	fset     *token.FileSet
	exportBy map[string]string // resolved import path -> export file
	base     types.ImporterFrom
	imports  map[string]*types.Package // gc importer cache (shared)
	current  map[string]string         // ImportMap of the package being checked
}

// NewLoader returns a loader rooted at dir.
func NewLoader(dir string) *Loader {
	l := &Loader{Dir: dir, fset: token.NewFileSet()}
	l.imports = make(map[string]*types.Package)
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := l.exportBy[path]
		if !ok || exp == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	l.base = importer.ForCompiler(l.fset, "gc", lookup).(types.ImporterFrom)
	return l
}

// Import implements types.Importer on top of the export-data importer,
// applying the current package's ImportMap (vendoring, test variants).
func (l *Loader) Import(path string) (*types.Package, error) {
	if mapped, ok := l.current[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return l.base.ImportFrom(path, l.Dir, 0)
}

// Load runs `go list` on patterns and returns the type-checked target units
// (the matched packages; dependencies are import-only).
func (l *Loader) Load(patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Standard,ImportMap,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	var targets []*listPkg
	l.exportBy = make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		if p.Export != "" {
			l.exportBy[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			pp := p
			targets = append(targets, &pp)
		}
	}

	prog := &Program{dir: l.Dir}
	for _, t := range targets {
		if t.Module != nil {
			prog.module = t.Module.Path
		}
		u, err := l.checkPackage(t)
		if err != nil {
			return nil, err
		}
		prog.Units = append(prog.Units, u)
	}
	return prog, nil
}

// checkPackage parses and type-checks one target package from source.
func (l *Loader) checkPackage(p *listPkg) (*Unit, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	l.current = p.ImportMap
	info := newInfo()
	conf := types.Config{Importer: l, FakeImportC: true}
	pkg, err := conf.Check(p.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return &Unit{
		ImportPath: p.ImportPath,
		Fset:       l.fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// CheckFixture type-checks a single source file (a test fixture) against the
// packages already loaded by a prior Load, returning it as a Unit. Fixtures
// live outside the module proper but may import module packages.
func (l *Loader) CheckFixture(path string) (*Unit, error) {
	if l.exportBy == nil {
		return nil, fmt.Errorf("CheckFixture before Load")
	}
	f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l.current = nil
	info := newInfo()
	conf := types.Config{Importer: l, FakeImportC: true}
	pkg, err := conf.Check("fixture/"+filepath.Base(path), l.fset, []*ast.File{f}, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck fixture %s: %v", path, err)
	}
	return &Unit{
		ImportPath: pkg.Path(),
		Fset:       l.fset,
		Files:      []*ast.File{f},
		Pkg:        pkg,
		Info:       info,
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
