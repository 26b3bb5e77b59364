// Command perfbench is CoStar-Go's benchmark: bytes in, Result out, end to
// end and split by layer, on three workloads.
//
//	json-reader   warm JSON session, closed loop on one goroutine
//	python-fresh  Python with a fresh DFA per document (the paper's Fig. 9
//	              configuration), closed loop on one goroutine
//	serve-mixed   in-process `costar serve` booted from artifacts, closed
//	              loop of two callers over loopback with clean, broken and
//	              tree-requesting calls
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload json-reader --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run is untimed by any tracing and prints the
// end-to-end metrics; with --trace 1 it prints the per-layer metrics from a
// traced composition of the same public pieces the parser composes, plus
// the tracing overhead and two checks of the layer times: that they cover
// the traced end-to-end time, and that with the calibrated clock cost
// removed they match the untraced time. Every output is checked against
// the independent imperative baseline (internal/allstar); any mismatch is
// counted, reported and makes the command exit 1. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"costar/internal/bench"
	"costar/internal/parser"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// catalogue reads the metric names and units BENCHMARK.json declares for
// the untraced (end_to_end) or the traced (per_layer) run.
func catalogue(root string, traced bool) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	units := map[string]string{}
	for _, e := range list {
		units[e.Name] = e.Unit
	}
	return units, nil
}

// The bands the traced run's checks must fall in (see provenance.json).
// reconcileBand: the traced layers (lexer, layout, prediction, machine,
// recover) cover the traced end-to-end time, leaving at most a tenth to
// harness glue. calibratedBand: traced time less the calibrated clock cost
// is within a fifth of the untraced time of the same documents.
var (
	reconcileBand  = [2]float64{0.90, 1.0001}
	calibratedBand = [2]float64{0.80, 1.20}
)

type workload interface {
	run(seed int64, seconds float64, traced bool) (metricSet, *run, error)
}

// serveCorpus gives serve-mixed its document sizes: the range
// internal/bench's serve figure and saturation gate post, and the range
// `costar compile` warms artifacts on.
var serveCorpus = bench.Quick()

// The workloads. Sizes, shares and the serve-mixed loop are recorded with
// their reasons in perfbench/provenance.json.
var workloads = map[string]workload{
	// 48 documents make the largest one about 2% of json-reader's samples,
	// so doc_ms_p99 falls near the middle of its times, not in their tail.
	"json-reader": libraryWorkload{lang: jsonLang, docs: 48, minTok: 300, maxTok: 30000},
	"python-fresh": libraryWorkload{lang: pythonLang, opts: parser.Options{FreshCachePerParse: true},
		docs: 16, minTok: 400, maxTok: 4000},
	"serve-mixed": serveWorkload{
		callers: 2, docsPerLang: 24, minTok: serveCorpus.MinTokens, maxTok: serveCorpus.MaxTokens,
		brokenEvery: 5, recoverEvery: 2, treeEvery: 4,
	},
}

func main() {
	name := flag.String("workload", "", "workload: json-reader, python-fresh or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	spans := flag.String("spans", "", "file to write the traced run's spans and environment to (JSON lines)")
	root := flag.String("root", ".", "repository root: BENCHMARK.json and the sources to hash")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload json-reader|python-fresh|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	units, err := catalogue(*root, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	env := environment(*root)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	out, res, err := w.run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace == 1 {
		for _, c := range []struct {
			name string
			band [2]float64
		}{{"trace.reconcile_ratio", reconcileBand}, {"trace.calibrated_ratio", calibratedBand}} {
			if r := out[c.name].Value; r < c.band[0] || r > c.band[1] {
				res.fail(c.name)
				fmt.Fprintf(os.Stderr, "perfbench: %s %.4f outside [%g, %g]\n", c.name, r, c.band[0], c.band[1])
			}
		}
		// Layers a workload does not reach report 0.
		for n, u := range units {
			if _, ok := out[n]; !ok {
				out.add(n, 0, u)
			}
		}
	}
	for n, m := range out {
		if units[n] != m.Unit {
			panic(fmt.Sprintf("perfbench: metric %s (%s) is not declared in BENCHMARK.json", n, m.Unit))
		}
	}
	if len(out) != len(units) {
		panic("perfbench: a metric declared in BENCHMARK.json was not measured")
	}
	if *spans != "" && *trace == 1 {
		if err := writeSpans(*spans, env, *name, *seed, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	if res.failed > 0 {
		causes := make([]string, 0, len(res.causes))
		for c, n := range res.causes {
			causes = append(causes, fmt.Sprintf("%s=%d", c, n))
		}
		sort.Strings(causes)
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed: %v\n", res.failed, res.attempted, causes)
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		os.Exit(1)
	}
}

// writeSpans writes the environment, then one line per traced document.
func writeSpans(path string, env map[string]any, name string, seed int64, res *run) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"env": env, "workload": name, "seed": seed, "failures": res.causes, "mix": res.mix}); err != nil {
		f.Close()
		return err
	}
	for _, s := range res.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
