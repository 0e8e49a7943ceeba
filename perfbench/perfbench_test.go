package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// paper-figs spawns its per-repetition child process.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--child" {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	if s := summarize(seq(10)); s.TailBeyond != 0 {
		t.Fatalf("10 samples: got a tail %+v, want none (nothing has 10 samples beyond it)", s)
	}
	for _, tc := range []struct {
		n    int
		want float64
		pct  float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		s := summarize(seq(tc.n))
		if s.Tail != tc.want || s.TailBeyond != 10 || s.TailPct != tc.pct {
			t.Errorf("n=%d: tail %v at p%v (%d beyond), want %v at p%v (10 beyond)",
				tc.n, s.Tail, s.TailPct, s.TailBeyond, tc.want, tc.pct)
		}
		// Exactly ten samples lie above the tail value.
		above := 0
		for _, v := range seq(tc.n) {
			if v > s.Tail {
				above++
			}
		}
		if above != 10 {
			t.Errorf("n=%d: %d samples above the tail, want 10", tc.n, above)
		}
	}
}

// The quartiles must be Python's statistics.quantiles(n=4), so a
// reader can recompute the spread from the raw values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		s := summarize(tc.in)
		if s.Q1 != tc.q1 || s.Q3 != tc.q3 {
			t.Errorf("%v: quartiles %v, %v; want %v, %v", tc.in, s.Q1, s.Q3, tc.q1, tc.q3)
		}
	}
}

// validName reports whether name is a legal metric or workload name:
// it starts with a letter or digit and is at most 64 letters, digits,
// '_', '.' and '-'.
func validName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("name %q: want 1 to 64 characters", name)
	}
	for i, r := range name {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return fmt.Errorf("name %q: must start with a letter or digit", name)
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return fmt.Errorf("name %q: character %q not in [A-Za-z0-9_.-]", name, r)
		}
	}
	return nil
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.run_s", "noc.bless_step_us_per_cycle", "mesh32-hml", "9lives", strings.Repeat("a", 64)} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q) = %v, want ok", ok, err)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a{b}", strings.Repeat("a", 65)} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) accepted an invalid name", bad)
		}
	}
	var names []string
	for _, set := range [][]metricDef{endToEnd, workloadMetrics, perLayer} {
		for _, d := range set {
			names = append(names, d.Name)
		}
	}
	names = append(names, workloadNames()...)
	seen := map[string]bool{}
	for _, n := range names {
		if err := validName(n); err != nil {
			t.Errorf("declared name: %v", err)
		}
		if seen[n] {
			t.Errorf("name %q declared twice", n)
		}
		seen[n] = true
	}
}

// BENCHMARK.json at the repository root must declare exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, workloadNames())
	}
	same := func(what string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestGoldenCheckFlagsWrongHash(t *testing.T) {
	newB := func(seed uint64, g goldens) *bench {
		return &bench{o: options{workload: "mesh32-hml", scale: "tiny", seed: seed}, gold: g, log: &bytes.Buffer{}}
	}
	const key = "mesh32-hml/tiny/counters"

	b := newB(defaultSeed, goldens{key: "abc"})
	b.checkGolden("counters", "abc", false)
	if b.attempted != 1 || b.failed != 0 {
		t.Errorf("matching hash: %d attempted, %d failed; want 1, 0", b.attempted, b.failed)
	}
	b = newB(defaultSeed, goldens{key: "abc"})
	b.checkGolden("counters", "abd", false)
	if b.attempted != 1 || b.failed != 1 {
		t.Errorf("injected wrong hash: %d attempted, %d failed; want 1, 1", b.attempted, b.failed)
	}
	b = newB(defaultSeed, goldens{})
	b.checkGolden("counters", "abc", false)
	if b.failed != 1 {
		t.Errorf("missing golden must fail, got %d failed", b.failed)
	}
	b = newB(defaultSeed+1, goldens{key: "abc"})
	b.checkGolden("counters", "zzz", false)
	if b.attempted != 0 {
		t.Errorf("a non-default seed has no golden to check, got %d attempted", b.attempted)
	}
	b = newB(defaultSeed+1, goldens{key: "abc"})
	b.checkGolden("counters", "zzz", true)
	if b.failed != 1 {
		t.Errorf("seed-independent inputs are checked on every seed, got %d failed", b.failed)
	}

	// End to end: a run whose golden is wrong reports correct=false and
	// exits non-zero.
	b = newB(defaultSeed, goldens{key: "abc"})
	b.checkGolden("counters", "abd", false)
	var out bytes.Buffer
	b.samples = map[string][]float64{}
	for _, d := range endToEnd {
		b.samples[d.Name] = []float64{1}
	}
	b.o.root = t.TempDir()
	b.outDir = b.o.root
	if code := b.finish(&out, &bytes.Buffer{}); code == 0 {
		t.Errorf("finish exited 0 with a failed golden check")
	}
	if fl := lastLine(t, out.String()); fl.Correct || fl.Failed != 1 {
		t.Errorf("final line %+v, want correct=false failed=1", fl)
	}
}

func TestSelfTimeAccounting(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add(0, "r", "rep", "bench", at(0), at(10))
	tr.Add(root, "r", "a", "sim", at(1), at(3))
	tr.Add(root, "r", "b", "sim", at(2), at(5)) // overlaps a: counted once for the parent
	c := tr.Add(root, "r", "c", "snap", at(9), at(12))
	tr.Add(c, "r", "d", "snap", at(10), at(11))
	self := selfTimes(tr.Spans())
	if got, want := self[root], 5*time.Millisecond; got != want {
		t.Errorf("root self %v, want %v (10 minus [1,5) and [9,10))", got, want)
	}
	if got, want := self[c], 2*time.Millisecond; got != want {
		t.Errorf("c self %v, want %v", got, want)
	}
	sum := 0.0
	for _, lt := range layerTable(tr.Spans()) {
		sum += lt.SelfS
	}
	// a and b overlap by 1ms: the per-layer sum exceeds the covered
	// time by exactly the concurrency.
	if want := 0.013; sum < want-1e-9 || sum > want+1e-9 {
		t.Errorf("self-time sum %v, want %v", sum, want)
	}

	// Job-trace spans nest by containment.
	tr = newTracer()
	p := tr.Add(0, "r", "point", "fleet", at(0), at(10))
	outer := tr.Add(p, "r", "job run", "serve", at(1), at(8))
	inner := tr.Add(p, "r", "job simulate", "sim", at(2), at(7))
	nestByContainment(tr, []int{outer, inner}, p)
	sp := tr.Spans()
	if sp[outer-1].Parent != p || sp[inner-1].Parent != outer {
		t.Errorf("nesting: outer parent %d (want %d), inner parent %d (want %d)",
			sp[outer-1].Parent, p, sp[inner-1].Parent, outer)
	}
}

func TestParseMetrics(t *testing.T) {
	page := `nocd_cache_hits_total 3
nocd_queue_wait_seconds_bucket{le="0.001"} 1
nocd_queue_wait_seconds_sum 0.5
nocd_queue_wait_seconds_count 2
nocd_peer_dispatched_total{peer="http://a"} 4
nocd_peer_dispatched_total{peer="http://b"} 5
`
	m := map[string]float64{}
	if err := parseMetrics(strings.NewReader(page), m); err != nil {
		t.Fatal(err)
	}
	if m["nocd_cache_hits_total"] != 3 || m["nocd_queue_wait_seconds_sum"] != 0.5 ||
		m["nocd_queue_wait_seconds_count"] != 2 || m["nocd_peer_dispatched_total"] != 9 {
		t.Errorf("parsed %v", m)
	}
	if _, ok := m["nocd_queue_wait_seconds_bucket"]; ok {
		t.Errorf("buckets must be skipped")
	}
}

func lastLine(t *testing.T, out string) finalLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var fl finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fl); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, out)
	}
	return fl
}

// TestSmokeTiny runs every workload end to end at tiny size, untraced
// and traced, from the repository root, against the stored goldens.
func TestSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w, "--scale", "tiny", "--seconds", "0.01", "--trace", trace}, &out, &errb)
				fl := lastLine(t, out.String())
				if code != 0 || !fl.Correct || fl.Failed != 0 || fl.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\nstdout:\n%s\nstderr:\n%s", code, fl, out.String(), errb.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(fl.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(fl.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := fl.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: %+v present=%v, want unit %s", d.Name, v, ok, d.Unit)
					}
					if trace == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v.Value)
					}
				}
			})
		}
	}
}
