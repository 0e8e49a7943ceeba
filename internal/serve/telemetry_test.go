package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// metricName strips a Prometheus text line down to its metric name —
// everything before the first '{' or ' '.
func metricName(line string) string {
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		return line[:i]
	}
	return line
}

// histogramNames expands one histogram's fixed line sequence: the
// bucket ladder, +Inf, sum and count.
func histogramNames(name string) []string {
	out := make([]string, 0, 11)
	for i := 0; i < 9; i++ {
		out = append(out, name+"_bucket")
	}
	return append(out, name+"_sum", name+"_count")
}

// TestMetricsFormatStability pins the /metrics page layout: the exact
// metric-name sequence, the histogram bucket ladder in ascending
// order, and the per-outcome counter values after one fresh job on a
// store-backed daemon. Dashboards and the CI smoke scrape this page;
// reordering or renaming lines is a breaking change that must show up
// here first.
func TestMetricsFormatStability(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapDir = t.TempDir()
	_, ts := startServer(t, cfg)
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	await(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")

	wantBuild := fmt.Sprintf("nocd_build_info{go_version=%q,goos=%q,goarch=%q} 1",
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if lines[0] != wantBuild {
		t.Errorf("first line = %q, want %q", lines[0], wantBuild)
	}

	// The fixed page prefix, name by name, up to the variable-length
	// per-endpoint HTTP section.
	want := []string{
		"nocd_build_info",
		"nocd_cache_entries", "nocd_cache_bytes", "nocd_cache_hits_total",
		"nocd_cache_misses_total", "nocd_cache_writes_total", "nocd_cache_hit_ratio",
		"nocd_queue_depth", "nocd_inflight_jobs", "nocd_jobs_total",
		"nocd_snap_entries", "nocd_snap_bytes", "nocd_snap_hits_total",
		"nocd_snap_misses_total", "nocd_snap_writes_total",
		"nocd_snap_corrupt_total", "nocd_snap_stale_total", "nocd_snap_evicted_total",
	}
	want = append(want, histogramNames("nocd_queue_wait_seconds")...)
	want = append(want, histogramNames("nocd_run_seconds")...)
	want = append(want, histogramNames("nocd_cache_lookup_seconds")...)
	want = append(want, histogramNames("nocd_snap_store_seconds")...)
	want = append(want,
		"nocd_jobs_outcome_total", "nocd_jobs_outcome_total",
		"nocd_runs_outcome_total", "nocd_runs_outcome_total")
	if len(lines) < len(want) {
		t.Fatalf("metrics page has %d lines, want at least %d", len(lines), len(want))
	}
	for i, name := range want {
		if got := metricName(lines[i]); got != name {
			t.Fatalf("line %d is %q, want metric %s", i, lines[i], name)
		}
	}
	for _, l := range lines[len(want):] {
		if n := metricName(l); n != "nocd_http_requests_total" && n != "nocd_http_request_seconds_sum" {
			t.Errorf("unexpected line after the fixed prefix: %q", l)
		}
	}

	// Bucket ladder order and shape inside one histogram.
	wantBuckets := []string{"0.001", "0.005", "0.025", "0.1", "0.5", "2.5", "10", "60", "+Inf"}
	first := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "nocd_queue_wait_seconds_bucket") {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no queue-wait bucket lines on the page")
	}
	qw := lines[first : first+len(wantBuckets)]
	for i, le := range wantBuckets {
		prefix := fmt.Sprintf("nocd_queue_wait_seconds_bucket{le=%q} ", le)
		if !strings.HasPrefix(qw[i], prefix) {
			t.Errorf("queue-wait bucket %d = %q, want prefix %q", i, qw[i], prefix)
		}
	}

	// One fresh job: counters must agree.
	for _, wantLine := range []string{
		"nocd_queue_wait_seconds_count 1",
		"nocd_run_seconds_count 1",
		"nocd_cache_lookup_seconds_count 1",
		`nocd_jobs_outcome_total{outcome="done"} 1`,
		`nocd_jobs_outcome_total{outcome="failed"} 0`,
		`nocd_runs_outcome_total{outcome="cached"} 0`,
		`nocd_runs_outcome_total{outcome="fresh"} 1`,
		"nocd_snap_writes_total 1",
	} {
		if !strings.Contains(string(raw), wantLine+"\n") {
			t.Errorf("metrics page missing line %q", wantLine)
		}
	}
}

// jobTraceDoc mirrors the Chrome trace-event envelope the trace
// endpoint must emit (the same schema the flit tracer's export test
// validates).
type jobTraceDoc struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Ts   *int64          `json:"ts"`
		Dur  int64           `json:"dur"`
		Pid  *int64          `json:"pid"`
		Tid  *uint64         `json:"tid"`
		S    string          `json:"s"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestJobTrace pins GET /v1/jobs/{id}/trace: valid Chrome trace JSON
// covering the whole job lifecycle — submission instant, queue wait,
// cache lookups, the runner window, per-run simulation and the export
// phase — with the /v1/runs alias serving identical bytes.
func TestJobTrace(t *testing.T) {
	cfg := testConfig(t)
	cfg.SnapDir = t.TempDir()
	_, ts := startServer(t, cfg)
	sub := submit(t, ts, planJSON, http.StatusAccepted)
	await(t, ts, sub.ID)

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q, want application/json", path, ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	raw := get("/v1/jobs/" + sub.ID + "/trace")
	if alias := get("/v1/runs/" + sub.ID + "/trace"); string(alias) != string(raw) {
		t.Error("/v1/runs trace alias serves different bytes than /v1/jobs")
	}

	var doc jobTraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace for a completed job")
	}
	seen := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d misses a required field: %+v", i, ev)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 {
				t.Fatalf("event %d: negative duration %d", i, ev.Dur)
			}
		case "i":
			if ev.S == "" {
				t.Fatalf("instant event %d misses scope", i)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ev.Ph)
		}
		if *ev.Ts < 0 {
			t.Fatalf("event %d: negative timestamp %d", i, *ev.Ts)
		}
		seen[ev.Name]++
	}
	for _, name := range []string{"submit", "queue", "cache_lookup", "run", "simulate", "export", "checkpoint"} {
		if seen[name] == 0 {
			t.Errorf("trace lacks a %q span (saw %v)", name, seen)
		}
	}

	// Unknown jobs 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace: HTTP %d, want 404", resp.StatusCode)
	}
}
