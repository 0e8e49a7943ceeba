package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nocsim/internal/exp"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

// figScale is paper-figs' fixed reduced scale: every run of fig7's
// batch and of fig13's scaling comparison simulates figCycles cycles,
// with the runner pool as wide as the machine. The seed is the
// repository's own (runner.DefaultScale's): the workload is the paper's
// figures as users regenerate them, so the benchmark seed does not
// enter, and every seed gives the same inputs.
func figScale(sz sizes) runner.Scale {
	sc := runner.DefaultScale()
	sc.Cycles = sz.figCycles
	sc.Epoch = sz.figCycles / 10
	sc.Workloads = sz.figWorkloads
	sc.MaxNodes = sz.figMaxNodes
	sc.Parallel = runtime.NumCPU()
	return sc
}

// buildFigPlans assembles what the fig7 and fig13 drivers declare:
// their workloads and every run's configuration. The drivers do this
// inside the call; the child does it once more up front so that its
// set-up time covers building the plans.
func buildFigPlans(sc runner.Scale) []sim.Config {
	var out []sim.Config
	n16 := max(sc.Workloads*4/5, 1)
	batch := []struct {
		ws   []workload.Workload
		edge int
	}{
		{workload.Batch(n16, 16, sc.Seed), 4},
		{workload.Batch(sc.Workloads-n16, 64, sc.Seed+777), 8},
	}
	for _, b := range batch {
		for _, w := range b.ws {
			out = append(out, runner.Baseline(w, b.edge, b.edge, sc), runner.Controlled(w, b.edge, b.edge, sc))
		}
	}
	cat, _ := workload.CategoryByName("H")
	for _, k := range []int{4, 8, 16, 32, 64} {
		nodes := k * k
		if nodes > sc.MaxNodes {
			break
		}
		w := workload.Generate(cat, nodes, sc.Seed+uint64(nodes))
		opts := []runner.Option{runner.WithMapping(sim.ExpMap, 1), runner.WithSeed(sc.Seed + uint64(nodes))}
		out = append(out,
			runner.Baseline(w, k, k, sc, opts...),
			runner.Controlled(w, k, k, sc, opts...),
			runner.Baseline(w, k, k, sc, append(opts, runner.WithRouter(sim.Buffered))...))
	}
	return out
}

// figRun is one simulation behind the figures, with its completion
// time taken from the runner's progress line.
type figRun struct {
	Label    string  `json:"label"`
	Nodes    int     `json:"nodes"`
	Cycles   int64   `json:"cycles"`
	ElapsedS float64 `json:"elapsed_s"`
	EndNS    int64   `json:"end_unix_ns"`
	Driver   string  `json:"driver"`
}

// figCounters are the runs' summed counters, gathered in traced
// repetitions (the drivers do not hand back per-run metrics).
type figCounters struct {
	Retired, Misses, LinkTraversals, Deflections int64
	FlitsInjected, BufferReads                   int64
	Epochs, Congested, ControlPackets            int64
}

// figsRep is one regeneration of both figures in a child process.
type figsRep struct {
	// ReadyNS is when the child, started, initialised and with its
	// plans built, is about to call the first driver.
	ReadyNS   int64        `json:"ready_unix_ns"`
	Fig7Start int64        `json:"fig7_start_unix_ns"`
	Fig7S     float64      `json:"fig7_s"`
	Fig13S    float64      `json:"fig13_s"`
	WallS     float64      `json:"wall_s"`
	Digest    string       `json:"digest"`
	Runs      []figRun     `json:"runs"`
	PeakRSSMB float64      `json:"peak_rss_mb"`
	Counters  *figCounters `json:"counters,omitempty"`
	Rendered  string       `json:"rendered"`
}

// stampedLines records when each progress line arrives: a run's
// completion time. The runner's Progress serializes its writes.
type stampedLines struct {
	mu    sync.Mutex
	lines []string
	at    []time.Time
}

func (s *stampedLines) Write(p []byte) (int, error) {
	t := now()
	s.mu.Lock()
	s.lines = append(s.lines, string(p))
	s.at = append(s.at, t)
	s.mu.Unlock()
	return len(p), nil
}

// ends maps run labels to their completion times. A line reads
// "[ i/n] <label> <nodes> nodes <cycles> cycles <elapsed>s (total ...)".
func (s *stampedLines) ends() map[string]time.Time {
	out := map[string]time.Time{}
	for i, l := range s.lines {
		_, rest, ok := strings.Cut(l, "]")
		f := strings.Fields(rest)
		if ok && len(f) > 0 {
			out[f[0]] = s.at[i]
		}
	}
	return out
}

// localRemote executes the drivers' runs in this process through a
// runner.Plan of its own, as runner.Scale.Remote: the traced
// repetitions use it to keep each run's metrics and controller
// decisions, which the drivers do not return. The determinism contract
// makes its results identical to the direct path; the digest check
// holds it to that.
type localRemote struct {
	base     runner.Scale
	progress *runner.Progress
	mu       sync.Mutex
	c        figCounters
}

func (l *localRemote) ExecuteSpecs(spec runner.PlanSpec) ([]runner.RemoteResult, error) {
	sc, runs, err := spec.Resolve(l.base)
	if err != nil {
		return nil, err
	}
	plan := runner.NewPlan(sc)
	plan.SetProgress(l.progress)
	epochs := make([]int64, len(runs))
	congested := make([]int64, len(runs))
	for k, r := range runs {
		k := k
		plan.AddRun(runner.Run{Label: r.Label, Config: r.Config, Cycles: r.Cycles, Observe: func(s *sim.Sim) {
			for _, d := range s.Decisions() {
				epochs[k]++
				if d.Congested {
					congested[k]++
				}
			}
		}})
	}
	ms := plan.Execute()
	stats := plan.Stats()
	out := make([]runner.RemoteResult, len(ms))
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, m := range ms {
		out[k] = runner.RemoteResult{Metrics: m, ElapsedMS: float64(stats[k].Elapsed.Microseconds()) / 1000}
		l.c.Retired += retiredOf(m)
		l.c.Misses += m.Misses
		l.c.LinkTraversals += m.Net.LinkTraversals
		l.c.Deflections += m.Net.Deflections
		l.c.FlitsInjected += m.Net.FlitsInjected
		l.c.BufferReads += m.Net.BufferReads
		l.c.ControlPackets += m.ControlPackets
		l.c.Epochs += epochs[k]
		l.c.Congested += congested[k]
	}
	return out, nil
}

// figsOnce regenerates fig7 and fig13 once, in this process, through
// exp.Lookup and the drivers, and reports timings, per-run completion
// times and the digest of the rendered results. With setupOnly it
// stops once it is ready to call the first driver.
func figsOnce(sz sizes, traced, setupOnly bool) (figsRep, error) {
	var rep figsRep
	sc := figScale(sz)
	buildFigPlans(sc)
	rep.ReadyNS = now().UnixNano()
	if setupOnly {
		return rep, nil
	}

	lines := &stampedLines{}
	var remote *localRemote
	if traced {
		remote = &localRemote{base: sc, progress: runner.NewProgress(lines)}
		sc.Remote = remote
	} else {
		sc.Progress = runner.NewProgress(lines)
	}
	var out bytes.Buffer
	var runs []figRun
	t0 := now()
	rep.Fig7Start = t0.UnixNano()
	for _, id := range []string{"fig7", "fig13"} {
		d, ok := exp.Lookup(id)
		if !ok {
			return rep, fmt.Errorf("experiment %s is not registered", id)
		}
		s := now()
		res := d(sc)
		dur := now().Sub(s).Seconds()
		if id == "fig7" {
			rep.Fig7S = dur
		} else {
			rep.Fig13S = dur
		}
		res.Render(&out)
		for _, st := range res.Runs {
			runs = append(runs, figRun{Label: st.Label, Nodes: st.Nodes, Cycles: st.Cycles,
				ElapsedS: st.Elapsed.Seconds(), Driver: id})
		}
	}
	rep.WallS = now().Sub(t0).Seconds()
	ends := lines.ends()
	for i := range runs {
		if e, ok := ends[runs[i].Label]; ok {
			runs[i].EndNS = e.UnixNano()
		}
	}
	rep.Runs = runs
	sum := sha256.Sum256(out.Bytes())
	rep.Digest = hex.EncodeToString(sum[:16])
	rep.Rendered = out.String()
	rep.PeakRSSMB = peakRSSMB()
	if remote != nil {
		rep.Counters = &remote.c
	}
	return rep, nil
}

// runChild is the --child entry point: one paper-figs regeneration in
// a fresh process, its figsRep as one JSON line on stdout. The drivers
// memoize per scale inside a process, so every regeneration gets its
// own process, as a user running the experiments command does.
func runChild(o options, stdout, stderr io.Writer) int {
	if o.child != "paper-figs" && o.child != "paper-figs-setup" {
		fmt.Fprintf(stderr, "perfbench: no child mode %q\n", o.child)
		return 2
	}
	rep, err := figsOnce(scales[o.scale], o.trace, o.child == "paper-figs-setup")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// spawnFigs runs one regeneration (or, with mode paper-figs-setup,
// only its set-up) in a child process and waits for it. It also
// returns the set-up time: from starting the process to the child
// being ready to call the first driver, which covers process start,
// package initialisation and the plan build.
func (b *bench) spawnFigs(mode string, traced bool) (figsRep, float64, error) {
	var rep figsRep
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "--child", mode, "--scale", b.o.scale, "--trace", tr)
	cmd.Dir = b.o.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := now()
	if err := cmd.Run(); err != nil {
		return rep, 0, fmt.Errorf("%s child: %v: %s", mode, err, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return rep, 0, fmt.Errorf("%s child output: %w", mode, err)
	}
	return rep, time.Unix(0, rep.ReadyNS).Sub(start).Seconds(), nil
}

// runFigs repeats the regeneration of fig7 and fig13, each in a fresh
// process. The rendered figures must be byte-identical across
// repetitions (and, traced, through the remote path) and, on every
// seed, match the golden digest.
func runFigs(b *bench) error {
	for i := 0; i < b.sz.figSetups; i++ {
		_, setup, err := b.spawnFigs("paper-figs-setup", false)
		if err != nil {
			return err
		}
		b.sample("setup_s", setup)
	}
	var first string
	var fig7, fig13 []float64
	runS := map[string][]float64{} // per run label, its elapsed time in each repetition
	work := map[string]float64{}   // per run label, its node-cycles
	err := b.repLoop(func(i int, tr *Tracer) (float64, error) {
		rep, setup, err := b.spawnFigs("paper-figs", tr != nil)
		if err != nil {
			return 0, err
		}
		b.sample("setup_s", setup)
		b.sample("peak_rss_mb", rep.PeakRSSMB)
		fig7, fig13 = append(fig7, rep.Fig7S), append(fig13, rep.Fig13S)
		for _, r := range rep.Runs {
			runS[r.Label] = append(runS[r.Label], r.ElapsedS)
			work[r.Label] = float64(r.Nodes) * float64(r.Cycles)
		}
		if i == 0 {
			first = rep.Digest
			b.checkGolden("rendered", rep.Digest, true)
			if b.o.update {
				fmt.Fprint(b.log, rep.Rendered)
			}
		} else {
			b.check("figures regenerate byte-identically", rep.Digest == first,
				fmt.Sprintf("repetition %d (traced=%v) digest %s, first %s", i, tr != nil, rep.Digest, first))
		}
		b.check("every run reported its completion", allEnded(rep.Runs), "a run has no progress line")
		if tr != nil {
			b.figLayers(tr, i, rep)
		}
		return rep.WallS, nil
	})
	// wall_s is a typical regeneration: each driver's median time,
	// summed. sim_mnode_cycles_per_s is node-cycles per second of
	// simulation: the runs' work over the sum of each run's median
	// time (the pool runs them nproc at a time, so the regeneration
	// takes about 1/nproc of that sum).
	b.sample("wall_s", summarize(fig7).Median+summarize(fig13).Median)
	var nodeCycles, busy float64
	for label, ts := range runS {
		nodeCycles += work[label]
		busy += summarize(ts).Median
	}
	if busy > 0 {
		b.sample("sim_mnode_cycles_per_s", nodeCycles/busy/1e6)
	}
	if err == nil && b.o.trace {
		err = b.stepProbe()
	}
	return err
}

func allEnded(runs []figRun) bool {
	for _, r := range runs {
		if r.EndNS == 0 {
			return false
		}
	}
	return true
}

// figLayers records a traced regeneration: spans for the two driver
// calls and, rebuilt from the progress lines, one per simulation run,
// plus the runner, exp, cpu, cache, core and noc per-layer values.
func (b *bench) figLayers(tr *Tracer, i int, rep figsRep) {
	trace := fmt.Sprintf("rep%d", i)
	start := time.Unix(0, rep.Fig7Start)
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	root := tr.Add(0, trace, "paper-figs", "bench", start, start.Add(sec(rep.WallS)))
	f7 := tr.Add(root, trace, "exp.fig7", "exp", start, start.Add(sec(rep.Fig7S)))
	f13Start := start.Add(sec(rep.Fig7S))
	f13 := tr.Add(root, trace, "exp.fig13", "exp", f13Start, f13Start.Add(sec(rep.Fig13S)))
	var busy float64
	type ivl struct{ lo, hi time.Time }
	byDriver := map[string][]ivl{}
	for _, r := range rep.Runs {
		end := time.Unix(0, r.EndNS)
		beg := end.Add(-sec(r.ElapsedS))
		parent := f7
		if r.Driver == "fig13" {
			parent = f13
		}
		tr.Add(parent, trace, "run "+r.Label, "runner", beg, end)
		busy += r.ElapsedS
		byDriver[r.Driver] = append(byDriver[r.Driver], ivl{beg, end})
	}
	// The pool's tail: from the last moment every worker was busy to
	// that figure driver's end, summed over both.
	var tail float64
	width := runtime.NumCPU()
	driverEnd := map[string]time.Time{"fig7": f13Start, "fig13": start.Add(sec(rep.WallS))}
	for d, ivs := range byDriver {
		type ev struct {
			t time.Time
			d int
		}
		var evs []ev
		for _, iv := range ivs {
			evs = append(evs, ev{iv.lo, +1}, ev{iv.hi, -1})
		}
		sort.Slice(evs, func(a, c int) bool {
			if !evs[a].t.Equal(evs[c].t) {
				return evs[a].t.Before(evs[c].t)
			}
			return evs[a].d < evs[c].d
		})
		inflight, lastFull := 0, time.Time{}
		for _, e := range evs {
			if inflight >= min(width, len(ivs)) && e.d < 0 {
				lastFull = e.t
			}
			inflight += e.d
		}
		if !lastFull.IsZero() {
			tail += driverEnd[d].Sub(lastFull).Seconds()
		}
	}
	b.layer("runner.runs", float64(len(rep.Runs)))
	b.layer("runner.run_s_sum", busy)
	b.layer("runner.pool_busy_frac", busy/(float64(width)*rep.WallS))
	b.layer("runner.tail_s", tail)
	b.layer("exp.fig7_s", rep.Fig7S)
	b.layer("exp.fig13_s", rep.Fig13S)
	if c := rep.Counters; c != nil {
		b.layer("cpu.retired_insns", float64(c.Retired))
		b.layer("cpu.minsns_per_host_s", float64(c.Retired)/busy/1e6)
		b.layer("cache.l1_misses", float64(c.Misses))
		b.layer("noc.link_traversals", float64(c.LinkTraversals))
		b.layer("noc.deflections", float64(c.Deflections))
		b.layer("noc.flits_injected", float64(c.FlitsInjected))
		b.layer("noc.buffer_reads", float64(c.BufferReads))
		b.layer("core.epochs", float64(c.Epochs))
		b.layer("core.congested_epochs", float64(c.Congested))
		b.layer("core.control_packets", float64(c.ControlPackets))
	}
	b.layer("par.shards", 1)
}
