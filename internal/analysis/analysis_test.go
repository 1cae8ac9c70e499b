package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// sharedLoader loads the module once for all fixture subtests: the loader
// caches export data and type-checked imports across CheckFixture calls.
var sharedLoader *Loader
var sharedProg *Program

func loadModule(t *testing.T) (*Loader, *Program) {
	t.Helper()
	if sharedLoader == nil {
		l := NewLoader("../..")
		prog, err := l.Load("./...")
		if err != nil {
			t.Fatalf("load module: %v", err)
		}
		sharedLoader, sharedProg = l, prog
	}
	return sharedLoader, sharedProg
}

func passByName(t *testing.T, name string) Pass {
	t.Helper()
	for _, p := range Passes() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no pass named %q", name)
	return Pass{}
}

// TestFixtures runs each pass over its golden fixture and requires the
// diagnostics to line up exactly with the `// want "regex"` comments.
func TestFixtures(t *testing.T) {
	l, _ := loadModule(t)
	cases := []struct {
		file string
		pass string
	}{
		{"undeclaredwrite.go", "undeclaredwrite"},
		{"depkey.go", "depkey"},
		{"lifecycle.go", "lifecycle"},
		{"emit_forward.go", "emitterbarrier"},
		{"emit_backward.go", "stalecapture"},
		{"errcheck_main.go", "errcheck"},
	}
	for _, c := range cases {
		t.Run(c.file+"/"+c.pass, func(t *testing.T) {
			path := filepath.Join("testdata", c.file)
			u, err := l.CheckFixture(path)
			if err != nil {
				t.Fatalf("check fixture: %v", err)
			}
			prog := &Program{Units: []*Unit{u}}
			diags := prog.Run([]Pass{passByName(t, c.pass)})
			compareWants(t, path, diags)
		})
	}
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// compareWants checks diagnostics against the fixture's want comments:
// every want must be matched by a diagnostic on its line, and every
// diagnostic must be covered by a want.
func compareWants(t *testing.T, path string, diags []Diagnostic) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int][]*regexp.Regexp{}
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			pat, err := strconv.Unquote(`"` + m[1] + `"`)
			if err != nil {
				t.Fatalf("%s:%d: bad want string: %v", path, i+1, err)
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
			}
			wants[i+1] = append(wants[i+1], re)
		}
	}

	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) != filepath.Base(path) {
			t.Errorf("diagnostic outside fixture: %s", d)
			continue
		}
		rest := wants[d.Pos.Line]
		idx := -1
		for i, re := range rest {
			if re.MatchString(d.Message) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("unexpected diagnostic at line %d: %s", d.Pos.Line, d.Message)
			continue
		}
		wants[d.Pos.Line] = append(rest[:idx], rest[idx+1:]...)
	}
	for line, rest := range wants {
		for _, re := range rest {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", path, line, re)
		}
	}
}

// TestRepoIsClean mirrors the CI gate: every pass over the real module must
// report nothing. The emitters, runtime, and CLIs are the primary consumers
// of these checks; a diagnostic here is a regression in either the code or
// a pass's precision.
func TestRepoIsClean(t *testing.T) {
	_, prog := loadModule(t)
	for _, d := range prog.Run(Passes()) {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestSeedSummariesResolve checks every kernel undeclaredwrite seeds names a
// function of the loaded tensor package: a stale name seeds nothing, and
// the pass then silently misses writes through the kernel it meant.
func TestSeedSummariesResolve(t *testing.T) {
	_, prog := loadModule(t)
	var pkg *types.Package
	for _, u := range prog.Units {
		if u.ImportPath == "bpar/internal/tensor" {
			pkg = u.Pkg
		}
	}
	if pkg == nil {
		t.Fatal("bpar/internal/tensor not loaded")
	}
	funcs := map[string]bool{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			funcs[obj.FullName()] = true
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || named.TypeParams().Len() != 1 {
				continue
			}
			for _, elt := range []types.Type{types.Typ[types.Float64], types.Typ[types.Float32]} {
				inst, err := types.Instantiate(nil, named, []types.Type{elt}, true)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < named.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(types.NewPointer(inst), true, pkg, named.Method(i).Name())
					funcs[m.(*types.Func).FullName()] = true
				}
			}
		}
	}
	for name := range seedSummaries() {
		if !funcs[name] {
			t.Errorf("seed %s names no function of bpar/internal/tensor", name)
		}
	}
}
