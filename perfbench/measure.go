package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windows is how many consecutive slices a run's samples are cut into for
// the percentile metrics.
const windows = 10

// windowed is the median, over windows consecutive slices of the
// time-ordered samples xs, of each slice's q-quantile. Host interference on
// this class of machine (hypervisor steal, a busy sibling thread) comes in
// bursts of seconds; a burst shifts one slice's tail, not the median slice.
func windowed(xs []float64, q float64) float64 {
	if len(xs) < windows {
		return quantile(xs, q)
	}
	per := make([]float64, windows)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], q)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rtSnap is a runtime/metrics reading; deltas between two readings give the
// GC share and allocation volume of the phase between them.
type rtSnap struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes, allocObjects float64
	cycles                   float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		}
	}
	return rtSnap{gcCPU: v[0], totalCPU: v[1], idleCPU: v[2], allocBytes: v[3], allocObjects: v[4], cycles: v[5]}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{
		gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU, idleCPU: a.idleCPU + b.idleCPU,
		allocBytes: a.allocBytes + b.allocBytes, allocObjects: a.allocObjects + b.allocObjects,
		cycles: a.cycles + b.cycles,
	}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, idleCPU: a.idleCPU - b.idleCPU,
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		cycles: a.cycles - b.cycles,
	}
}

// gcMetrics renders a phase's runtime deltas per document token. The CPU
// classes are the runtime's own estimates, refreshed at each GC cycle.
func gcMetrics(d rtSnap, tokens float64, out metricSet) {
	out.add("gc.cpu_frac", ratio(d.gcCPU, d.totalCPU-d.idleCPU), "frac")
	out.add("gc.alloc_b_per_tok", ratio(d.allocBytes, tokens), "B/tok")
	out.add("gc.allocs_per_tok", ratio(d.allocObjects, tokens), "1/tok")
	out.add("gc.cycles", d.cycles, "count")
}

// resetPeakRSS collects the heap, returns its free pages to the OS, and
// lowers the process's resident-set high-water mark to its current size
// (Linux: writing 5 to /proc/self/clear_refs), so that peakRSSMB covers
// only what runs after it, not the benchmark's own set-up: corpus and
// reference trees, artifact compilation, repeated set-ups. The workloads
// reset it before each slice of their measured loop and read it after, and
// report the median slice's peak: a single peak over the run depends on
// where collection cycles happen to fall against the largest documents,
// and ten seeds spread 0.17 on python-fresh.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// environment records where a run was measured. The checkout the benchmark
// runs in need not be a git repository, so the commit is identified by a
// hash of the module's Go sources and go.mod files.
func environment(root string) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"host":       host,
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     sourceHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
