package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Env is recorded with every result, so a reader can tell which code,
// toolchain and machine a number came from without any other file.
type Env struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	BenchHash  string `json:"bench_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// benchDir is the benchmark's own directory, relative to the root of
// the checkout.
const benchDir = "perfbench"

// captureEnv records the environment of a run from the checkout root.
func captureEnv(root string) Env {
	e := Env{
		Commit:     gitCommit(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	e.SourceHash, e.BenchHash = sourceHashes(root)
	return e
}

// gitCommit names the checked-out commit, or "none" outside a git
// repository (the digests below identify the sources either way).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHashes digests the program's Go sources and go.mod (everything
// outside the benchmark) and, separately, the benchmark's own files.
func sourceHashes(root string) (program, bench string) {
	var prog, own []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == filepath.Join(benchDir, "goldens.json") {
			return nil
		}
		switch {
		case strings.HasPrefix(rel, benchDir+string(filepath.Separator)):
			own = append(own, rel)
		case strings.HasSuffix(rel, ".go") || rel == "go.mod":
			prog = append(prog, rel)
		}
		return nil
	})
	return digestFiles(root, prog), digestFiles(root, own)
}

func digestFiles(root string, rels []string) string {
	sort.Strings(rels)
	h := sha256.New()
	for _, rel := range rels {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			continue
		}
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat:
// the total and the part stolen by the hypervisor for other guests.
func cpuTicks() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
