package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// goldens maps "workload/scale/name" to the hash the default seed must
// produce. They are counters hashes (or, for paper-figs, the digest of
// the rendered figures): a change that claims only speed must leave
// every one unchanged.
type goldens map[string]string

func loadGoldens(path string) (goldens, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return goldens{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldens
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// checkGolden compares a hash with its stored golden. Goldens are
// stored for the default seed; a workload whose inputs do not depend
// on the seed (everySeed) is checked on every seed, the others only on
// the default one. With --update-goldens the hash is recorded instead.
// A missing golden is a failed check, never a skipped one.
func (b *bench) checkGolden(name, got string, everySeed bool) {
	if b.o.seed != defaultSeed && !everySeed {
		return
	}
	key := fmt.Sprintf("%s/%s/%s", b.o.workload, b.o.scale, name)
	if b.o.update {
		b.gold[key] = got
		return
	}
	want, ok := b.gold[key]
	switch {
	case !ok:
		b.check("golden "+name, false, "no golden stored for "+key+"; regenerate with --update-goldens")
	case want != got:
		b.check("golden "+name, false, fmt.Sprintf("hash %s, golden %s", got, want))
	default:
		b.check("golden "+name, true, "")
	}
}

// updateGoldens reruns the chosen workloads (all, for --workload all)
// at both scales on the default seed and rewrites goldens.json.
func updateGoldens(o options, stdout, stderr io.Writer) int {
	path := filepath.Join(o.root, benchDir, "goldens.json")
	gold, err := loadGoldens(path)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	o.seed, o.trace = defaultSeed, false
	for _, w := range workloads {
		if o.workload != "all" && o.workload != w.name {
			continue
		}
		for _, sc := range []string{"full", "tiny"} {
			wo := o
			wo.workload, wo.scale = w.name, sc
			b, err := newBench(wo, gold, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 2
			}
			err = w.run(b)
			b.cleanup()
			if err == nil && b.failed > 0 {
				err = fmt.Errorf("%d checks failed", b.failed)
			}
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s at %s scale: %v\n", w.name, sc, err)
				return 1
			}
			fmt.Fprintf(stdout, "updated goldens of %s at %s scale\n", w.name, sc)
		}
	}
	raw, err := json.MarshalIndent(gold, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
