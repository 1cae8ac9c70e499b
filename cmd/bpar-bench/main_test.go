package main

import (
	"strings"
	"testing"

	"bpar/internal/experiments"
)

// TestUsageListsEveryExperiment: every name run accepts is spelled out in the
// -exp help text, so the usage cannot drift from the dispatch.
func TestUsageListsEveryExperiment(t *testing.T) {
	usage := expUsage()
	listed := map[string]bool{}
	for _, name := range strings.Split(usage[strings.LastIndex(usage, ":")+1:], ",") {
		listed[strings.TrimSpace(name)] = true
	}
	if !strings.Contains(usage, "all") {
		t.Errorf("usage %q does not mention all", usage)
	}
	for _, e := range experimentList {
		if !listed[e.name] {
			t.Errorf("run accepts %q but the -exp usage does not list it: %q", e.name, usage)
		}
	}
}

// TestRunRejectsDeletedExperiments: the native wall-clock experiments are
// gone from the CLI. bench/ measures the engine; core's
// TestDepCheckDeterminism checks determinism.
func TestRunRejectsDeletedExperiments(t *testing.T) {
	for _, name := range []string{"replay", "dtype", "multihead", "sched", "determinism"} {
		_, err := run(name, experiments.Opts{})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("run(%q) = %v, want an unknown experiment error", name, err)
		}
	}
}
