package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nocsim/internal/noc/stepbench"
	"nocsim/internal/runner"
	"nocsim/internal/traffic"
)

// sizes fixes how much work one repetition of each workload does.
type sizes struct {
	meshEdge   int   // mesh32-hml: mesh edge
	meshCycles int64 // mesh32-hml: simulated cycles per repetition

	figCycles    int64 // paper-figs: cycles per run
	figWorkloads int   // paper-figs: fig7 batch size
	figMaxNodes  int   // paper-figs: fig13 largest mesh
	figSetups    int   // paper-figs: extra set-up-only child processes per run

	fleetCycles  int64 // fleet-sweep: cycles per point
	gridSeeds    int   // fleet-sweep: seeds per grid cell
	revisits     int   // fleet-sweep: single-point sweeps per repetition
	fleetVerify  int   // fleet-sweep: points re-run in-process per repetition
	fleetSetups  int   // fleet-sweep: extra daemon start-ups timed per run
	stepWarmup   int   // traced runs: fabric warm-up cycles before timing
	stepCycles   int   // traced runs: timed fabric cycles
	minReps      int   // repetitions even past --seconds
	maxReps      int   // repetitions at most
	meshSetups   int   // mesh32-hml: extra sim.New calls timed per run
	traceMinReps int   // repetitions in a traced run (half traced)
}

const (
	meshChunk   = 100 // mesh32-hml: cycles per timed chunk of the run
	fleetEdge   = 4   // fleet-sweep: mesh edge of every point
	sampleEvery = 500 // fleet-sweep: the daemons' sampler interval
)

// scales are the selectable workload sizes. Goldens are stored per
// scale, so the benchmark's tests check the same hashes at tiny size.
var scales = map[string]sizes{
	"full": {
		meshEdge: 32, meshCycles: 3000,
		figCycles: 20_000, figWorkloads: 14, figMaxNodes: 64, figSetups: 8,
		fleetCycles: 5_000, gridSeeds: 2, revisits: 40, fleetVerify: 2, fleetSetups: 16,
		stepWarmup: 300, stepCycles: 300,
		minReps: 3, maxReps: 200, meshSetups: 2, traceMinReps: 4,
	},
	"tiny": {
		meshEdge: 4, meshCycles: 500,
		figCycles: 2_000, figWorkloads: 2, figMaxNodes: 16, figSetups: 1,
		fleetCycles: 1_000, gridSeeds: 1, revisits: 4, fleetVerify: 1, fleetSetups: 1,
		stepWarmup: 10, stepCycles: 10,
		minReps: 1, maxReps: 2, meshSetups: 0, traceMinReps: 2,
	},
}

// bench is one run of one workload: options, sizes, the tracer, and
// everything measured so far.
type bench struct {
	o      options
	sz     sizes
	gold   goldens
	log    io.Writer
	tr     *Tracer // records spans of traced repetitions
	start  time.Time
	ticks  [2]int64 // /proc/stat total and steal ticks at the start
	outDir string
	tmpDir string

	samples   map[string][]float64 // end-to-end and workload metrics
	layers    map[string][]float64 // per-layer values, one per traced repetition
	reps      int
	walls     [2][]float64 // repetition wall times, untraced and traced
	attempted int
	failed    int
	failures  []string
}

func newBench(o options, gold goldens, log io.Writer) (*bench, error) {
	b := &bench{
		o: o, sz: scales[o.scale], gold: gold, log: log, start: now(),
		samples: map[string][]float64{}, layers: map[string][]float64{},
		outDir: filepath.Join(o.root, ".bench_build", "perfbench", "out"),
	}
	b.ticks[0], b.ticks[1] = cpuTicks()
	if o.trace {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build", "perfbench"), "tmp-")
	if err != nil {
		return nil, err
	}
	b.tmpDir = tmp
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.tmpDir) }

func (b *bench) sample(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

func (b *bench) layer(name string, v float64) { b.layers[name] = append(b.layers[name], v) }

// check counts one correctness operation; a failure is recorded with
// its detail and makes the run incorrect.
func (b *bench) check(name string, ok bool, detail string) {
	b.attempted++
	if !ok {
		b.failed++
		b.failures = append(b.failures, name+": "+detail)
		fmt.Fprintf(b.log, "perfbench: check failed: %s: %s\n", name, detail)
	}
}

// repLoop calls one repetition until --seconds have passed (at least
// minReps times, at most maxReps). In a traced run repetitions
// alternate untraced and traced, starting untraced, so the two wall
// times give the tracing overhead; tr is nil on untraced repetitions.
func (b *bench) repLoop(one func(i int, tr *Tracer) (wall float64, err error)) error {
	minReps := b.sz.minReps
	if b.o.trace {
		minReps = max(minReps, b.sz.traceMinReps)
	}
	deadline := b.start.Add(time.Duration(b.o.seconds * float64(time.Second)))
	for i := 0; i < b.sz.maxReps && (i < minReps || now().Before(deadline)); i++ {
		var tr *Tracer
		traced := b.o.trace && i%2 == 1
		if traced {
			tr = b.tr
		}
		wall, err := one(i, tr)
		if err != nil {
			return err
		}
		b.reps++
		k := 0
		if traced {
			k = 1
		}
		b.walls[k] = append(b.walls[k], wall)
	}
	return nil
}

// stepProbe times the bare BLESS fabric at 32x32 through stepbench, at
// the shard count mesh32-hml uses: the noc layer's speed with no cores
// or caches around it.
func (b *bench) stepProbe() error {
	c, err := stepbench.FindCase("bless/32x32")
	if err != nil {
		return err
	}
	net := c.New(runner.WorkersFor(1024, runtime.NumCPU()))
	defer func() {
		if cl, ok := net.(interface{ Close() }); ok {
			cl.Close()
		}
	}()
	n := net.Topology().Nodes()
	rate := c.Rate
	if rate == 0 {
		rate = 0.08 // stepbench's default injection rate
	}
	inj := traffic.NewInjector(n, rate, traffic.Uniform{Nodes: n}, 42)
	for i := 0; i < b.sz.stepWarmup; i++ {
		stepbench.StepOnce(net, inj)
	}
	t0 := now()
	for i := 0; i < b.sz.stepCycles; i++ {
		stepbench.StepOnce(net, inj)
	}
	b.layer("noc.bless_step_us_per_cycle", float64(now().Sub(t0).Microseconds())/float64(b.sz.stepCycles))
	return nil
}

// Result is everything one run measured; it is printed, and written
// as JSON next to the Chrome trace.
type Result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Scale    string  `json:"scale"`
	Reps     int     `json:"reps"`
	Env      Env     `json:"env"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run: host noise, as a number.
	StealFrac   float64            `json:"host_steal_frac"`
	Metrics     map[string]Summary `json:"metrics"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	LayerTimes  []LayerTime        `json:"layer_self_s,omitempty"`
	TracedWallS float64            `json:"traced_wall_s,omitempty"` // mean root-span length
	SelfSumS    float64            `json:"self_sum_s,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Spans       []Span             `json:"-"`
}

// result assembles the run's Result: medians and spreads of every
// sample set, the per-layer medians, and the self-time table per
// traced repetition.
func (b *bench) result() Result {
	r := Result{
		Workload: b.o.workload, Seed: b.o.seed, Seconds: b.o.seconds, Trace: b.o.trace,
		Scale: b.o.scale, Reps: b.reps, Env: captureEnv(b.o.root),
		Metrics:   map[string]Summary{},
		Attempted: b.attempted, Failed: b.failed, Failures: b.failures,
	}
	if total, steal := cpuTicks(); total > b.ticks[0] {
		r.StealFrac = float64(steal-b.ticks[1]) / float64(total-b.ticks[0])
	}
	for name, vals := range b.samples {
		r.Metrics[name] = summarize(vals)
	}
	if !b.o.trace {
		return r
	}
	untraced, traced := summarize(b.walls[0]), summarize(b.walls[1])
	b.layer("trace.overhead_s", traced.Median-untraced.Median)
	r.Spans = b.tr.Spans()
	// The table is per traced repetition, against the repetition's root
	// span: with no overlapping children, the self times sum to it.
	if n := len(b.walls[1]); n > 0 {
		for _, s := range r.Spans {
			if s.Parent == 0 {
				r.TracedWallS += s.Dur().Seconds() / float64(n)
			}
		}
		for _, lt := range layerTable(r.Spans) {
			lt.SelfS /= float64(n)
			r.SelfSumS += lt.SelfS
			r.LayerTimes = append(r.LayerTimes, lt)
			if lt.Layer == "bench" {
				b.layer("bench.unattributed_s", lt.SelfS)
			}
		}
	}
	r.Layers = map[string]float64{}
	for _, d := range perLayer {
		r.Layers[d.Name] = 0
		if vals := b.layers[d.Name]; len(vals) > 0 {
			r.Layers[d.Name] = summarize(vals).Median
		}
	}
	return r
}

// writeOutputs stores the result JSON, and for traced runs the Chrome
// trace, under .bench_build/perfbench/out.
func (b *bench) writeOutputs(r Result) error {
	trace := 0
	if r.Trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, trace)
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(b.outDir, base+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	f, err := os.Create(filepath.Join(b.outDir, base+".chrome.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	spans := append([]Span(nil), r.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return writeChrome(f, spans)
}
