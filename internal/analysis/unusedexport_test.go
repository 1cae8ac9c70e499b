package analysis

import (
	"path/filepath"
	"testing"
)

// TestUnusedExportFixture runs the pass over a small module whose internal
// package has production uses (from its command), test-only uses, an
// interface-converted type, a fmt-printed Stringer, an allowlisted oracle
// and a stale allowlist entry. The narrow load of the library alone must
// report exactly what the whole-module load reports.
func TestUnusedExportFixture(t *testing.T) {
	dir := filepath.Join("testdata", "unusedexport")
	allow := map[string]string{
		"lib.Oracle": "kept on purpose",
		"lib.Gone":   "names nothing",
	}
	for _, pattern := range []string{"./...", "./internal/lib"} {
		t.Run(pattern, func(t *testing.T) {
			prog, err := NewLoader(dir).Load(pattern)
			if err != nil {
				t.Fatal(err)
			}
			var diags []Diagnostic
			for _, ds := range prog.unusedExports(allow) {
				diags = append(diags, ds...)
			}
			compareWants(t, filepath.Join(dir, "internal", "lib", "lib.go"), diags)
		})
	}
}
