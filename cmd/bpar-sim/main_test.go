package main

// The golden files hold bpar-sim's report at the arguments of CI's smoke
// run, so a change to the paper graph, the simulator or the cost model shows
// as a reviewed diff. go test ./cmd/bpar-sim -update rewrites them. The
// values are those of amd64, where Go never fuses a multiply-add.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from bpar-sim's reports")

// smokeArgs are CI's bpar-sim smoke arguments.
var smokeArgs = []string{"-layers", "2", "-seq", "10", "-cores", "1,48"}

// runArgs parses args as bpar-sim's command line and runs it.
func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("bpar-sim", flag.ContinueOnError)
	bindFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, o)
	return buf.String(), err
}

func TestGoldenReports(t *testing.T) {
	for _, c := range []struct{ name, flag string }{{"train", ""}, {"barrier", "-barrier"}, {"infer", "-infer"}} {
		t.Run(c.name, func(t *testing.T) {
			args := slices.Clone(smokeArgs)
			if c.flag != "" {
				args = append(args, c.flag)
			}
			got, err := runArgs(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (go test -update writes it)", err)
			}
			if got != string(want) {
				t.Errorf("bpar-sim %s differs from %s (go test -update accepts the change)\n got:\n%s\nwant:\n%s",
					strings.Join(args, " "), path, got, want)
			}
		})
	}
}

// TestInferBarrierRejected: the per-layer barrier graph is a training graph,
// so -infer -barrier has nothing to simulate.
func TestInferBarrierRejected(t *testing.T) {
	if _, err := runArgs(t, slices.Concat(smokeArgs, []string{"-infer", "-barrier"})...); err == nil {
		t.Fatal("bpar-sim accepted -infer -barrier")
	}
}
