// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator, the experiment drivers or the
// service layers, checks that every simulated output is correct, and
// prints every metric by name with its unit, median, quartiles and
// sample count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with
// --trace 1 they are the per-layer metrics of a traced run. Run it from
// the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload mesh32-hml --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// how to regenerate the goldens.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// defaultSeed is the seed the goldens are stored for.
const defaultSeed = 1

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user sees, reported by every workload
// (each workload's meaning is in README.md). BENCHMARK.json declares
// the same list; a test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_mnode_cycles_per_s", "Mnodecyc/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// workloadMetrics are the workload-specific end-to-end metrics. Every
// run prints them and writes them to its result file, but they are not
// in the final JSON line: each exists on one workload only.
var workloadMetrics = []metricDef{
	{"checkpoint_s", "s", "lower", 0},
	{"points_per_s", "1/s", "higher", 0},
	{"fresh_point_ms", "ms", "lower", 0},
	{"cached_point_ms", "ms", "lower", 0},
}

// perLayer are the traced run's metrics, one set per program layer.
// Every workload reports all of them; a layer that does no work on a
// workload reports 0 there.
var perLayer = []metricDef{
	{"sim.new_s", "s", "lower", 0},
	{"sim.run_s", "s", "lower", 0},
	{"noc.bless_step_us_per_cycle", "us", "lower", 0},
	{"noc.link_traversals", "count", "lower", 0},
	{"noc.deflections", "count", "lower", 0},
	{"noc.flits_injected", "count", "lower", 0},
	{"noc.buffer_reads", "count", "lower", 0},
	{"par.shards", "count", "higher", 0},
	{"cpu.retired_insns", "count", "higher", 0},
	{"cpu.minsns_per_host_s", "Minsns/s", "higher", 0},
	{"cache.l1_misses", "count", "lower", 0},
	{"core.epochs", "count", "lower", 0},
	{"core.congested_epochs", "count", "lower", 0},
	{"core.control_packets", "count", "lower", 0},
	{"snap.snapshot_s", "s", "lower", 0},
	{"snap.restore_s", "s", "lower", 0},
	{"snap.blob_mb", "MB", "lower", 0},
	{"serve.snap_store_ms", "ms", "lower", 0},
	{"runner.runs", "count", "lower", 0},
	{"runner.run_s_sum", "s", "lower", 0},
	{"runner.pool_busy_frac", "frac", "higher", 0},
	{"runner.tail_s", "s", "lower", 0},
	{"exp.fig7_s", "s", "lower", 0},
	{"exp.fig13_s", "s", "lower", 0},
	{"obs.samples_per_fresh_point", "count", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.cache_lookup_ms", "ms", "lower", 0},
	{"serve.run_ms", "ms", "lower", 0},
	{"serve.cache_hits", "count", "higher", 0},
	{"serve.cache_misses", "count", "lower", 0},
	{"fleet.dispatched", "count", "lower", 0},
	{"fleet.dispatch_ms", "ms", "lower", 0},
	{"fleet.retried", "count", "lower", 0},
	{"fleet.stolen", "count", "lower", 0},
	{"fleet.unattributed_ms", "ms", "lower", 0},
	{"bench.unattributed_s", "s", "lower", 0},
	{"trace.overhead_s", "s", "lower", 0},
}

// workloads maps each workload name to its implementation; README.md
// and BENCHMARK.json say why each is in the benchmark.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"mesh32-hml", runMesh},
	{"paper-figs", runFigs},
	{"fleet-sweep", runFleet},
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	update   bool
	child    string
	root     string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (or all, with --update-goldens)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; goldens are checked on the default seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep repeating the workload")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	fs.StringVar(&o.scale, "scale", "full", "workload size: full, or tiny for the benchmark's own tests")
	fs.BoolVar(&o.update, "update-goldens", false, "rewrite goldens.json for the default seed instead of checking it")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition of the named workload in this process")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if _, ok := scales[o.scale]; !ok {
		return o, fmt.Errorf("unknown --scale %q", o.scale)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.seed == 0 {
		return o, fmt.Errorf("--seed must be non-zero (0 means \"scale default\" to the program)")
	}
	root, err := os.Getwd()
	if err != nil {
		return o, err
	}
	o.root = root
	return o, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
		return 2
	}
	if o.child != "" {
		return runChild(o, stdout, stderr)
	}
	if _, err := os.Stat(filepath.Join(o.root, benchDir, "go.mod")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	if o.update {
		return updateGoldens(o, stdout, stderr)
	}
	var fn func(*bench) error
	for _, w := range workloads {
		if w.name == o.workload {
			fn = w.run
		}
	}
	if fn == nil {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	gold, err := loadGoldens(filepath.Join(o.root, benchDir, "goldens.json"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := newBench(o, gold, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer b.cleanup()
	if err := fn(b); err != nil {
		// A workload that cannot finish is a failed operation, not a
		// skipped one: it still reports, with correct=false.
		b.check("workload completes", false, err.Error())
	}
	return b.finish(stdout, stderr)
}

// finalLine is the machine-readable result, the last line of stdout.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]finalValue `json:"metrics"`
}

type finalValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the human report and the final JSON line, writes the
// full result (and the trace) under .bench_build, and returns the exit
// code: 1 when any correctness check failed or a metric is missing.
func (b *bench) finish(stdout, stderr io.Writer) int {
	res := b.result()
	printReport(stdout, res)
	if err := b.writeOutputs(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing result files: %v\n", err)
	}
	fl := finalLine{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]finalValue{}}
	defs := endToEnd
	if b.o.trace {
		defs = perLayer
	}
	missing := false
	for _, d := range defs {
		var v float64
		var ok bool
		if b.o.trace {
			v, ok = res.Layers[d.Name]
		} else {
			var s Summary
			s, ok = res.Metrics[d.Name]
			v = s.Median
			ok = ok && s.N > 0
		}
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.Name)
			missing = true
			continue
		}
		fl.Metrics[d.Name] = finalValue{Value: v, Unit: d.Unit}
	}
	if fl.Attempted == 0 {
		fl.Attempted = 1
		fl.Failed = 1
	}
	fl.Correct = fl.Failed == 0 && !missing
	line, err := json.Marshal(fl)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !fl.Correct {
		return 1
	}
	return 0
}

// printReport writes the human-readable result: environment, every
// metric with unit, median, quartiles, spread and sample count, the
// per-layer values and self-time table, and any failed check.
func printReport(w io.Writer, r Result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v scale=%s reps=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Scale, r.Reps)
	e := r.Env
	fmt.Fprintf(w, "env: commit=%s source=%s bench=%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q host_steal=%.1f%%\n",
		e.Commit, e.SourceHash, e.BenchHash, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, 100*r.StealFrac)
	fmt.Fprintf(w, "%-28s %-11s %12s %12s %12s %7s %5s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "n", "tail")
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		t := "-"
		if s.TailBeyond > 0 {
			t = fmt.Sprintf("p%.1f=%.4g (%d beyond)", s.TailPct, s.Tail, s.TailBeyond)
		}
		fmt.Fprintf(w, "%-28s %-11s %12.6g %12.6g %12.6g %6.1f%% %5d  %s\n",
			n, unitOf(n), s.Median, s.Q1, s.Q3, 100*s.Spread, s.N, t)
	}
	fmt.Fprintf(w, "%-28s %-11s %12.6g   (%d failed of %d attempted)\n", "failed_ops_frac", "frac",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	if r.Trace {
		fmt.Fprintln(w, "per-layer:")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %-9s %14.6g\n", d.Name, d.Unit, r.Layers[d.Name])
		}
		fmt.Fprintf(w, "self time per traced repetition (wall %.4fs, self-time sum %.4fs):\n", r.TracedWallS, r.SelfSumS)
		for _, lt := range r.LayerTimes {
			fmt.Fprintf(w, "  %-10s %10.4fs %6.1f%% of wall  (%d spans)\n", lt.Layer, lt.SelfS, 100*lt.SelfS/r.TracedWallS, lt.Spans)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}

// unitOf finds a metric's unit among the declared metrics.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, workloadMetrics, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
