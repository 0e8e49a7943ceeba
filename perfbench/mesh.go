package main

import (
	"bytes"
	"fmt"
	"runtime"

	"nocsim/internal/app"
	"nocsim/internal/obs"
	"nocsim/internal/rng"
	"nocsim/internal/runner"
	"nocsim/internal/sim"
	"nocsim/internal/workload"
)

// hmlMix is the HML category's application pool in exact proportion
// (each application on the same number of nodes, give or take one),
// placed on the mesh by a permutation drawn from the seed. Drawing
// each node independently, as workload.Generate does, moves the
// offered load by about ten percent from seed to seed at this size;
// a fixed composition keeps the work per run the same on every seed,
// so the seed changes the inputs without changing how much there is
// to simulate.
func hmlMix(nodes int, seed uint64) workload.Workload {
	cat, _ := workload.CategoryByName("HML")
	var pool []app.Profile
	for _, c := range cat.Classes {
		pool = append(pool, app.ByClass(c)...)
	}
	apps := make([]*app.Profile, nodes)
	for i := range apps {
		p := pool[i%len(pool)]
		apps[i] = &p
	}
	r := rng.New(seed).Split("placement")
	for i := nodes - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		apps[i], apps[j] = apps[j], apps[i]
	}
	return workload.Workload{Category: cat.Name, Apps: apps, Seed: seed}
}

// meshConfig is the mesh32-hml system: the HML mix on an edge x edge
// BLESS mesh under the central controller, at the shard count users
// get by default.
func meshConfig(seed uint64, sz sizes) sim.Config {
	nodes := sz.meshEdge * sz.meshEdge
	w := hmlMix(nodes, seed)
	sc := runner.DefaultScale()
	sc.Seed = seed
	sc.Cycles = sz.meshCycles
	sc.Epoch = sz.meshCycles / 10
	return runner.Controlled(w, sz.meshEdge, sz.meshEdge, sc,
		runner.WithWorkers(runner.WorkersFor(nodes, runtime.NumCPU())))
}

// countersHash digests a run's counters the way the service layer does
// (fabric counters, retired instructions, L1 misses).
func countersHash(m sim.Metrics) string {
	return obs.HashCounters(m.Net, retiredOf(m), m.Misses)
}

func retiredOf(m sim.Metrics) int64 {
	var n int64
	for _, r := range m.Retired {
		n += r
	}
	return n
}

// runMesh repeats: sim.New, Run for the fixed cycle budget, Snapshot
// of the final state, Restore of that snapshot. Every repetition
// simulates the same inputs, so its counters hash must repeat, and the
// restored state must re-snapshot to the identical blob.
func runMesh(b *bench) error {
	cfg := meshConfig(b.o.seed, b.sz)
	nodes := float64(b.sz.meshEdge * b.sz.meshEdge)
	// Set-up alone, a few extra times: sim.New is the workload's set-up
	// and one sample per repetition is too few for a steady median.
	for i := 0; i < b.sz.meshSetups; i++ {
		t0 := now()
		s := sim.New(cfg)
		b.sample("setup_s", now().Sub(t0).Seconds())
		s.Close()
	}
	// The run is timed in chunks (stepping is window-size invariant, so
	// the result is the same). A burst of load from elsewhere on the
	// host lands in a few chunks; per-chunk medians leave it out.
	chunks := make([][]float64, b.sz.meshCycles/meshChunk)
	var snaps, restores []float64
	var firstHash string
	err := b.repLoop(func(i int, tr *Tracer) (float64, error) {
		trace := fmt.Sprintf("rep%d", i)
		root := tr.Begin(0, trace, "mesh32-hml", "bench")

		t0 := now()
		id := tr.Begin(root, trace, "sim.New", "sim")
		s := sim.New(cfg)
		tr.End(id)
		t1 := now()
		id = tr.Begin(root, trace, "sim.Run", "sim")
		for c := 0; c < len(chunks); c++ {
			c0 := now()
			s.Run(meshChunk)
			chunks[c] = append(chunks[c], now().Sub(c0).Seconds())
		}
		tr.End(id)
		t2 := now()
		id = tr.Begin(root, trace, "sim.Snapshot", "snap")
		blob := s.Snapshot()
		tr.End(id)
		// Free the first system before restoring the second, as a
		// resume in a fresh process would.
		m := s.Metrics()
		decisions := s.Decisions()
		s.Close()
		s = nil
		t3 := now()
		id = tr.Begin(root, trace, "sim.Restore", "snap")
		restored, rerr := sim.Restore(cfg, blob)
		tr.End(id)
		t4 := now()
		tr.End(root)

		if rerr != nil {
			return 0, fmt.Errorf("restore: %w", rerr)
		}
		again := restored.Snapshot()
		restored.Close()
		restored = nil
		// Collect this repetition's garbage outside the timed calls, so
		// the next one starts from the same heap.
		runtime.GC()

		setup, runS := t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
		snapS, restS := t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()
		wall := t4.Sub(t1).Seconds()
		b.sample("setup_s", setup)
		b.sample("checkpoint_s", snapS+restS)
		snaps, restores = append(snaps, snapS), append(restores, restS)

		b.check("restored state re-snapshots identically", bytes.Equal(blob, again),
			fmt.Sprintf("%d-byte blob, %d-byte re-snapshot", len(blob), len(again)))
		hash := countersHash(m)
		if i == 0 {
			firstHash = hash
			b.checkGolden("counters", hash, false)
		} else {
			b.check("counters hash repeats across repetitions", hash == firstHash,
				fmt.Sprintf("repetition %d hash %s, first %s", i, hash, firstHash))
		}
		if tr != nil {
			congested := 0
			for _, d := range decisions {
				if d.Congested {
					congested++
				}
			}
			retired := float64(retiredOf(m))
			b.layer("sim.new_s", setup)
			b.layer("sim.run_s", runS)
			b.layer("par.shards", float64(cfg.Workers))
			b.layer("noc.link_traversals", float64(m.Net.LinkTraversals))
			b.layer("noc.deflections", float64(m.Net.Deflections))
			b.layer("noc.flits_injected", float64(m.Net.FlitsInjected))
			b.layer("noc.buffer_reads", float64(m.Net.BufferReads))
			b.layer("cpu.retired_insns", retired)
			b.layer("cpu.minsns_per_host_s", retired/runS/1e6)
			b.layer("cache.l1_misses", float64(m.Misses))
			b.layer("core.epochs", float64(len(decisions)))
			b.layer("core.congested_epochs", float64(congested))
			b.layer("core.control_packets", float64(m.ControlPackets))
			b.layer("snap.snapshot_s", snapS)
			b.layer("snap.restore_s", restS)
			b.layer("snap.blob_mb", float64(len(blob))/(1<<20))
		}
		return wall, nil
	})
	// wall_s is a typical repetition: each chunk's median time across
	// repetitions, summed, plus the median snapshot and restore.
	// sim_mnode_cycles_per_s is the median rate over every chunk timed.
	var typical float64
	for _, c := range chunks {
		typical += summarize(c).Median
		for _, t := range c {
			b.sample("sim_mnode_cycles_per_s", nodes*float64(meshChunk)/t/1e6)
		}
	}
	b.sample("wall_s", typical+summarize(snaps).Median+summarize(restores).Median)
	b.sample("peak_rss_mb", peakRSSMB())
	if err == nil && b.o.trace {
		err = b.stepProbe()
	}
	return err
}
