package sirius

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"sirius/internal/telemetry"
)

// TestMetricsLint is the metrics-lint gate verify.sh calls out by name:
// it scrapes /metrics from a live server after real traffic and runs
// the exposition through the telemetry linter, so a malformed family,
// a broken histogram invariant, or a bad exemplar suffix fails CI
// before a real Prometheus ever chokes on it.
func TestMetricsLint(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	// Drive both response kinds so histogram families, exemplars, and
	// the SLO gauges all have live values behind them.
	for _, text := range []string{"what is the capital of france", "call mom"} {
		body, ctype, err := BuildJSONQuery(nil, nil, text)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %q: status %s", text, resp.Status)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.LintPrometheus(string(text)); err != nil {
		t.Fatalf("/metrics fails lint: %v", err)
	}
	for _, want := range []string{
		`# {trace_id="`, // at least one OpenMetrics exemplar on a tail bucket
		"sirius_slo_target_seconds",
		"sirius_slo_burn_rate",
		"sirius_stage_kernel_seconds",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Each layer is timed once: kernel time lives only in the stage/kernel
	// family, and the stage family carries only the three pipeline stages.
	if strings.Contains(string(text), "sirius_kernel_seconds") {
		t.Error("/metrics carries sirius_kernel_seconds, a second kernel-time family beside sirius_stage_kernel_seconds")
	}
	// The GMM bank scores fp64 only, so its kernel has no int8 row.
	if strings.Contains(string(text), `kernel="gmm_i8"`) {
		t.Error(`/metrics carries a kernel="gmm_i8" row, but the GMM bank has no int8 kernel`)
	}
	// The query path has no result cache, so no family for it.
	if strings.Contains(string(text), "sirius_cache_") {
		t.Error("/metrics carries a sirius_cache_* family, but the server has no result cache")
	}
	// Each fact is counted once: served queries are the latency
	// histogram's _count, sheds and timeouts are error reasons, and
	// partials are the stability histogram's _count.
	for _, restated := range []string{"sirius_queries_total", "sirius_shed_total", "sirius_timeouts_total", "sirius_stream_partials_total"} {
		if strings.Contains(string(text), restated) {
			t.Errorf("/metrics carries %s, which restates another series", restated)
		}
	}
	series := regexp.MustCompile(`(?m)^sirius_stage_latency_seconds_count\{stage="([^"]*)"\}`).FindAllStringSubmatch(string(text), -1)
	if len(series) == 0 {
		t.Error("/metrics has no sirius_stage_latency_seconds series after a served query")
	}
	for _, m := range series {
		if stage := m[1]; stage != "asr" && stage != "qa" && stage != "imm" {
			t.Errorf("sirius_stage_latency_seconds carries stage %q, want only asr, qa, imm", stage)
		}
	}
}
