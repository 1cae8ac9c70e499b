package obs_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/obs"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

var (
	commentRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	sampleRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ([-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|[-+]?Inf|NaN)$`)
)

// checkExposition validates Prometheus text-format rules over a scrape body:
// every line is a well-formed comment or sample, each family has exactly one
// TYPE line, and no series (name+labels) appears twice. It returns the
// sample values by full series name.
func checkExposition(t *testing.T, body string) map[string]string {
	t.Helper()
	samples := map[string]string{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if typed[fields[2]] {
				t.Fatalf("duplicate TYPE for family %s", fields[2])
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !commentRe.MatchString(line) {
				t.Fatalf("malformed comment line: %q", line)
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		series := m[1] + m[2]
		if _, dup := samples[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		samples[series] = m[4]
	}
	return samples
}

func scrape(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpointCatalog(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	srv := httptest.NewServer(obs.NewMux(reg))
	defer srv.Close()

	code, body := scrape(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	checkExposition(t, body)
	if !strings.Contains(body, "go_goroutines") {
		t.Fatalf("missing process metrics:\n%s", body)
	}

	code, body = scrape(t, srv, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz status %d body %q", code, body)
	}

	code, _ = scrape(t, srv, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	code, _ = scrape(t, srv, "/debug/pprof/heap?debug=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/heap status %d", code)
	}
}

// TestSchedulerCountersMoveAfterEngineStep wires a real runtime + engine +
// tensor counters into one registry, scrapes before and after a training
// step, and asserts the scheduler, engine, and tensor series all advanced —
// the live-telemetry acceptance criterion in miniature.
func TestSchedulerCountersMoveAfterEngineStep(t *testing.T) {
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 8, HiddenSize: 12, Layers: 1, SeqLen: 5,
		Batch: 6, Classes: data.NumDigits, MiniBatches: 2, Seed: 1,
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	eng := core.NewEngine(m, rt)

	reg := obs.NewRegistry()
	rt.RegisterMetrics(reg)
	eng.EnableObs(reg)
	tensor.RegisterMetrics(reg)
	srv := httptest.NewServer(obs.NewMux(reg))
	defer srv.Close()

	_, before := scrape(t, srv, "/metrics")
	beforeVals := checkExposition(t, before)

	corpus := data.NewSpeechCorpus(cfg.InputSize, 2)
	if _, err := eng.TrainStep(corpus.Batch(cfg.Batch, cfg.SeqLen), 0.05); err != nil {
		t.Fatal(err)
	}

	_, after := scrape(t, srv, "/metrics")
	afterVals := checkExposition(t, after)

	mustGrow := []string{
		"bpar_sched_tasks_submitted_total",
		"bpar_sched_tasks_executed_total",
		`bpar_engine_steps_total{op="train"}`,
		`bpar_engine_step_seconds_count{op="train"}`,
		"bpar_engine_workspace_cache_misses_total",
		"bpar_tensor_gemm_calls_total",
		"bpar_tensor_gemm_flops_total",
	}
	for _, series := range mustGrow {
		b, a := beforeVals[series], afterVals[series]
		if a == "" {
			t.Fatalf("series %q missing after step; scrape:\n%s", series, after)
		}
		if a == b {
			t.Errorf("series %q did not move: before=%q after=%q", series, b, a)
		}
	}
	// Per-worker series exist for every configured worker.
	for _, series := range []string{
		`bpar_sched_worker_idle_seconds_total{worker="0"}`,
		`bpar_sched_worker_idle_seconds_total{worker="1"}`,
		`bpar_sched_ready_queue_depth{queue="global"}`,
	} {
		if _, ok := afterVals[series]; !ok {
			t.Errorf("missing series %q", series)
		}
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
