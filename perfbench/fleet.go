package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nocsim/internal/fleet"
	"nocsim/internal/obs"
	"nocsim/internal/rng"
	"nocsim/internal/runner"
	"nocsim/internal/serve"
	"nocsim/internal/sim"
)

// fleetBase is the daemons' base scale: one shard per simulation (the
// points are small), defaults otherwise.
func fleetBase() runner.Scale {
	sc := runner.DefaultScale()
	sc.Workers = 1
	return sc
}

// daemons is one coordinator and one peer, each a real serve daemon
// with the fleet layer, its own result cache and checkpoint store,
// behind a loopback listener.
type daemons struct {
	peer, coord *serve.Server
	pf, cf      *fleet.Fleet
	pts, cts    *httptest.Server
}

// storeDirs creates the daemons' empty result-cache and checkpoint
// directories, as an operator provisions volumes before starting a
// daemon. Daemon start-up opens and scans them.
func storeDirs(dir string) error {
	for _, d := range []string{"peer/cache", "peer/snaps", "coord/cache", "coord/snaps"} {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return err
		}
	}
	return nil
}

// startDaemons brings up the peer, then the coordinator pointing at
// it, over the stores storeDirs made. Both run at most nproc jobs, and
// the coordinator keeps at most nproc in flight on the peer.
func startDaemons(dir string) (*daemons, error) {
	nproc := runtime.NumCPU()
	cfg := func(name string) serve.Config {
		return serve.Config{
			Scale:          fleetBase(),
			CacheDir:       filepath.Join(dir, name, "cache"),
			SnapDir:        filepath.Join(dir, name, "snaps"),
			Jobs:           nproc,
			SampleInterval: sampleEvery,
		}
	}
	d := &daemons{}
	var err error
	if d.peer, err = serve.New(cfg("peer")); err != nil {
		return nil, err
	}
	if d.pf, err = fleet.Enable(d.peer, fleet.Config{}); err != nil {
		return nil, err
	}
	d.peer.Start()
	d.pts = httptest.NewServer(d.peer.Handler())
	if d.coord, err = serve.New(cfg("coord")); err != nil {
		d.close()
		return nil, err
	}
	if d.cf, err = fleet.Enable(d.coord, fleet.Config{Peers: []string{d.pts.URL}, Window: nproc}); err != nil {
		d.close()
		return nil, err
	}
	d.coord.Start()
	d.cts = httptest.NewServer(d.coord.Handler())
	return d, nil
}

// close stops listeners, drains both queues and stops the
// coordinator's workers, waiting for each.
func (d *daemons) close() {
	if d.cts != nil {
		d.cts.Close()
	}
	if d.coord != nil {
		d.coord.Drain()
	}
	if d.cf != nil {
		d.cf.Close()
	}
	if d.pts != nil {
		d.pts.Close()
	}
	d.peer.Drain()
	d.pf.Close()
}

// gridSpec is the grid phase: every workload category of the H/M/L
// mix, baseline and central controller, gridSeeds seeds each.
func gridSpec(seed uint64, sz sizes) fleet.SweepSpec {
	raw := func(v any) json.RawMessage { j, _ := json.Marshal(v); return j }
	var seeds []json.RawMessage
	for k := 0; k < sz.gridSeeds; k++ {
		seeds = append(seeds, raw(seed*1000+uint64(k)+1))
	}
	return fleet.SweepSpec{
		Scale: runner.ScaleSpec{Cycles: sz.fleetCycles, Epoch: sz.fleetCycles / 10, Seed: seed},
		Base:  runner.RunSpec{Label: "grid", Width: fleetEdge},
		Axes: []fleet.Axis{
			{Name: "workload", Values: []json.RawMessage{raw("H"), raw("M"), raw("L"), raw("HML")}},
			{Name: "preset", Values: []json.RawMessage{raw("baseline"), raw("controlled")}},
			{Name: "seed", Values: seeds},
		},
	}
}

// revisitList is the closed-loop phase's seeded request list: half
// repeat a grid point (a cache read), half are points no one has asked
// for yet (a fresh computation), in a seeded order. The new points
// cycle through the grid's categories and presets with fresh seeds, so
// every list asks for the same amount of simulation.
func revisitList(seed uint64, sz sizes, grid []runner.RunSpec) []runner.RunSpec {
	r := rng.New(seed).Split("revisit")
	cats := []string{"H", "M", "L", "HML"}
	presets := []string{"baseline", "controlled"}
	out := make([]runner.RunSpec, 0, sz.revisits)
	for i := 0; i < sz.revisits; i++ {
		if i%2 == 0 {
			out = append(out, grid[r.Intn(len(grid))])
			continue
		}
		k := i / 2
		out = append(out, runner.RunSpec{
			Label:    fmt.Sprintf("revisit/%d", k),
			Width:    fleetEdge,
			Workload: cats[k%len(cats)],
			Preset:   presets[(k/len(cats))%len(presets)],
			Seed:     seed*1000 + 500 + uint64(k),
		})
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runFleet repeats, on fresh daemons each time: start-up, the grid
// sweep, then the closed-loop revisit phase. Every point's counters
// hash must equal its fresh computation's, a sample of points must
// match an in-process runner execution, and on the default seed the
// digest of all hashes must match the golden.
func runFleet(b *bench) error {
	spec := gridSpec(b.o.seed, b.sz)
	grid, err := spec.Points(4096)
	if err != nil {
		return err
	}
	list := revisitList(b.o.seed, b.sz, grid)
	nodes := float64(fleetEdge * fleetEdge)
	pick := rng.New(b.o.seed).Split("verify")

	for i := 0; i < b.sz.fleetSetups; i++ {
		dir := filepath.Join(b.tmpDir, fmt.Sprintf("setup%d", i))
		if err := storeDirs(dir); err != nil {
			return err
		}
		t0 := now()
		d, err := startDaemons(dir)
		if err != nil {
			return err
		}
		b.sample("setup_s", now().Sub(t0).Seconds())
		d.close()
		os.RemoveAll(dir)
	}

	var firstDigest string
	var grids []float64
	points := make([][]float64, len(list)) // per revisit request, its latency in each repetition
	var freshNodeCycles float64
	err = b.repLoop(func(i int, tr *Tracer) (float64, error) {
		trace := fmt.Sprintf("rep%d", i)
		dir := filepath.Join(b.tmpDir, trace)
		defer os.RemoveAll(dir)
		if err := storeDirs(dir); err != nil {
			return 0, err
		}
		root := tr.Begin(0, trace, "fleet-sweep", "bench")
		t0 := now()
		id := tr.Begin(root, trace, "daemons start", "serve")
		d, err := startDaemons(dir)
		tr.End(id)
		if err != nil {
			return 0, err
		}
		defer d.close()
		b.sample("setup_s", now().Sub(t0).Seconds())
		client := fleet.NewClient(d.cts.URL)

		t1 := now()
		id = tr.Begin(root, trace, "fleet.Client.Sweep grid", "fleet")
		res, err := client.Sweep(spec)
		tr.End(id)
		gridS := now().Sub(t1).Seconds()
		if err != nil {
			return 0, fmt.Errorf("grid sweep: %w", err)
		}
		fresh := map[string]string{} // key -> counters hash of its fresh computation
		var hashes []string
		for _, pt := range res.Points {
			b.check("grid point computed fresh", pt.State == "done" && !pt.Cached && pt.CountersHash != "",
				fmt.Sprintf("%s: state %s cached %v", pt.Label, pt.State, pt.Cached))
			fresh[pt.Key] = pt.CountersHash
			hashes = append(hashes, pt.Label+"="+pt.CountersHash)
		}
		freshNodeCycles = float64(len(res.Points)) * nodes * float64(b.sz.fleetCycles)
		grids = append(grids, gridS)

		var unattributed []float64
		for k, rs := range list {
			p0 := now()
			pid := tr.Begin(root, trace, "fleet.Client.Sweep point", "fleet")
			one, err := client.Sweep(fleet.SweepSpec{Scale: spec.Scale, Runs: []runner.RunSpec{rs}})
			tr.End(pid)
			lat := now().Sub(p0)
			if err != nil {
				return 0, fmt.Errorf("revisit %d: %w", k, err)
			}
			if len(one.Points) != 1 {
				return 0, fmt.Errorf("revisit %d: %d points", k, len(one.Points))
			}
			pt := one.Points[0]
			want, seen := fresh[pt.Key]
			switch {
			case seen:
				b.check("repeated point served from cache with its fresh hash", pt.Cached && pt.CountersHash == want,
					fmt.Sprintf("%s: cached %v hash %s, fresh hash %s", pt.Label, pt.Cached, pt.CountersHash, want))
				b.sample("cached_point_ms", float64(lat.Microseconds())/1000)
			default:
				b.check("new point computed fresh", !pt.Cached && pt.CountersHash != "",
					fmt.Sprintf("%s: cached %v", pt.Label, pt.Cached))
				fresh[pt.Key] = pt.CountersHash
				freshNodeCycles += nodes * float64(b.sz.fleetCycles)
				b.sample("fresh_point_ms", float64(lat.Microseconds())/1000)
			}
			hashes = append(hashes, pt.Label+"="+pt.CountersHash)
			points[k] = append(points[k], lat.Seconds())
			if tr != nil {
				covered, err := mergeJobTrace(tr, d.cts.URL, pt.Job, trace, pid, p0)
				if err != nil {
					return 0, err
				}
				unattributed = append(unattributed, float64((lat-covered).Microseconds())/1000)
			}
		}
		tr.End(root)
		wall := now().Sub(t1).Seconds()

		digest := runner.DigestStrings(hashes)
		if i == 0 {
			firstDigest = digest
			b.checkGolden("counters", digest, false)
		} else {
			b.check("sweep hashes repeat across repetitions", digest == firstDigest,
				fmt.Sprintf("repetition %d digest %s, first %s", i, digest, firstDigest))
		}
		// In-process reference: a sample of points re-run through the
		// runner must carry the hash the fleet reported.
		all := append(append([]runner.RunSpec(nil), grid...), list...)
		for v := 0; v < b.sz.fleetVerify; v++ {
			rs := all[pick.Intn(len(all))]
			got, samples, key, err := runLocal(spec.Scale, rs, sampleEvery)
			if err != nil {
				return 0, err
			}
			b.check("fleet point matches in-process runner execution", got == fresh[key],
				fmt.Sprintf("%s: runner hash %s, fleet hash %s", rs.Label, got, fresh[key]))
			if tr != nil {
				b.layer("obs.samples_per_fresh_point", float64(samples))
			}
		}
		if tr != nil {
			if err := b.fleetLayers(d, unattributed); err != nil {
				return 0, err
			}
		}
		return wall, nil
	})
	// wall_s is a typical repetition: the median grid sweep plus each
	// revisit request's median latency. Every repetition asks for the
	// same points, so the fresh node-cycles are the same in each.
	if len(grids) > 0 {
		gridS := summarize(grids).Median
		typical := gridS
		for _, p := range points {
			typical += summarize(p).Median
		}
		b.sample("wall_s", typical)
		b.sample("sim_mnode_cycles_per_s", freshNodeCycles/typical/1e6)
		b.sample("points_per_s", float64(len(grid))/gridS)
	}
	b.sample("peak_rss_mb", peakRSSMB())
	if err == nil && b.o.trace {
		err = b.stepProbe()
	}
	return err
}

// runLocal executes one sweep point through runner.Plan in this
// process, with the daemons' interval sampler attached, and returns
// its counters hash, the sampler's sample count, and the point's key.
func runLocal(scale runner.ScaleSpec, rs runner.RunSpec, every int64) (hash string, samples int, key string, err error) {
	sc, runs, err := runner.PlanSpec{Scale: scale, Runs: []runner.RunSpec{rs}}.Resolve(fleetBase())
	if err != nil {
		return "", 0, "", err
	}
	sc.Obs = obs.Options{SampleInterval: every}
	plan := runner.NewPlan(sc)
	plan.AddRun(runner.Run{Label: runs[0].Label, Config: runs[0].Config, Cycles: runs[0].Cycles,
		Observe: func(s *sim.Sim) {
			if o := s.Obs(); o != nil && o.Sampler != nil {
				samples = len(o.Sampler.Samples())
			}
		}})
	ms := plan.Execute()
	return countersHash(ms[0]), samples, runs[0].Key, nil
}

// jobLayer files a daemon job-trace span under the layer that does
// its work.
var jobLayer = map[string]string{
	"queue": "serve", "cache_lookup": "serve", "run": "serve", "export": "serve",
	"peer_lookup": "fleet", "dispatch": "fleet", "peer_run": "fleet", "replicate": "fleet",
	"simulate": "sim", "checkpoint": "snap",
}

// mergeJobTrace fetches the coordinator's /v1/jobs/{id}/trace for one
// point and adds its spans under the point's span. The trace counts
// from the job's submission, which the sweep handler makes as soon as
// the POST arrives; the POST's start anchors it. It returns how much of
// the point's latency the daemon's spans cover.
func mergeJobTrace(tr *Tracer, base, job, trace string, parent int, anchor time.Time) (time.Duration, error) {
	resp, err := http.Get(base + "/v1/jobs/" + job + "/trace")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []obs.ChromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, fmt.Errorf("job %s trace: %w", job, err)
	}
	var ids []int
	var ivs []interval
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		layer, ok := jobLayer[ev.Name]
		if !ok {
			layer = "serve"
		}
		lo := anchor.Add(time.Duration(ev.Ts) * time.Microsecond)
		hi := lo.Add(time.Duration(ev.Dur) * time.Microsecond)
		ids = append(ids, tr.Add(parent, trace, "job "+ev.Name, layer, lo, hi))
		ivs = append(ivs, interval{time.Duration(ev.Ts) * time.Microsecond, time.Duration(ev.Ts+ev.Dur) * time.Microsecond})
	}
	nestByContainment(tr, ids, parent)
	return covered(0, 1<<62, ivs), nil
}

// fleetLayers reads both daemons' /metrics after a traced repetition
// and records the serve and fleet per-layer values.
func (b *bench) fleetLayers(d *daemons, unattributed []float64) error {
	m := map[string]float64{}
	for _, url := range []string{d.cts.URL, d.pts.URL} {
		if err := scrape(url+"/metrics", m); err != nil {
			return err
		}
	}
	mean := func(h string) float64 {
		if m[h+"_count"] == 0 {
			return 0
		}
		return 1000 * m[h+"_sum"] / m[h+"_count"]
	}
	b.layer("serve.queue_wait_ms", mean("nocd_queue_wait_seconds"))
	b.layer("serve.cache_lookup_ms", mean("nocd_cache_lookup_seconds"))
	b.layer("serve.run_ms", mean("nocd_run_seconds"))
	b.layer("serve.snap_store_ms", mean("nocd_snap_store_seconds"))
	b.layer("serve.cache_hits", m["nocd_cache_hits_total"])
	b.layer("serve.cache_misses", m["nocd_cache_misses_total"])
	b.layer("fleet.dispatched", m["nocd_peer_dispatched_total"])
	b.layer("fleet.dispatch_ms", mean("nocd_peer_dispatch_seconds"))
	b.layer("fleet.retried", m["nocd_peer_retried_total"])
	b.layer("fleet.stolen", m["nocd_peer_stolen_total"])
	if len(unattributed) > 0 {
		b.layer("fleet.unattributed_ms", summarize(unattributed).Median)
	}
	b.layer("par.shards", 1)
	return nil
}

// scrape adds one /metrics page's samples into m, summing series of
// the same name across labels and pages.
func scrape(url string, m map[string]float64) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body, m)
}

func parseMetrics(r io.Reader, m map[string]float64) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.HasSuffix(name[:i], "_bucket") {
				continue
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		m[name] += v
	}
	return sc.Err()
}
