package main

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"costar/internal/analysis"
	"costar/internal/ebnf"
	"costar/internal/g4"
	"costar/internal/lexer"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/prediction"
	"costar/internal/tree"
)

// counts accumulates the engine's own per-parse counters (Result.Stats and
// Result.Usage), which every parse reports, traced or not.
type counts struct {
	tokens                                    int64
	sll, trivial, hits, misses, scan, fallbks int64
	steps, nodes, closure                     int64
	stackMax, windowMax                       int
}

func (c *counts) add(tokens int, st prediction.Stats, u machine.Usage) {
	c.tokens += int64(tokens)
	c.sll += int64(st.SLLCalls)
	c.trivial += int64(st.TrivialCalls)
	c.hits += int64(st.CacheHits)
	c.misses += int64(st.CacheMisses)
	c.scan += int64(st.TokensScanned)
	c.fallbks += int64(st.LLFallbacks)
	c.steps += int64(u.Steps)
	c.nodes += int64(u.TreeNodes)
	c.closure += int64(u.ClosureWork)
	c.stackMax = max(c.stackMax, u.StackDepth)
	c.windowMax = max(c.windowMax, u.PeakWindow)
}

func (c *counts) report(out metricSet) {
	tok := float64(c.tokens)
	calls := float64(c.sll + c.trivial)
	out.add("prediction.calls_per_tok", ratio(calls, tok), "1/tok")
	out.add("prediction.trivial_frac", ratio(float64(c.trivial), calls), "frac")
	out.add("prediction.cache_hit_ratio", ratio(float64(c.hits), float64(c.hits+c.misses)), "frac")
	out.add("prediction.lookahead_per_call", ratio(float64(c.scan), float64(c.sll)), "tok")
	out.add("prediction.closure_per_tok", ratio(float64(c.closure), tok), "1/tok")
	out.add("prediction.ll_fallbacks", ratio(1000*float64(c.fallbks), tok), "1/ktok")
	out.add("machine.steps_per_tok", ratio(float64(c.steps), tok), "1/tok")
	out.add("machine.nodes_per_tok", ratio(float64(c.nodes), tok), "1/tok")
	out.add("machine.stack_max", float64(c.stackMax), "count")
	out.add("source.peak_window", float64(c.windowMax), "tok")
}

// libraryWorkload is a single-goroutine closed loop over one session: each
// document goes bytes → Result through the language's streaming cursor and
// Parser.ParseSource, the path the CLI and serve take.
type libraryWorkload struct {
	lang           *language
	opts           parser.Options
	docs           int
	minTok, maxTok int
}

// run accumulates one workload run's outcome.
type run struct {
	attempted, failed int
	causes            map[string]int
	spans             []span
	mix               map[string]float64 // serve-mixed: the realized request mix
}

func (r *run) fail(cause string) {
	r.failed++
	if r.causes == nil {
		r.causes = map[string]int{}
	}
	r.causes[cause]++
}

// checkClean is the reference check for a clean document's result.
func checkClean(kind machine.ResultKind, t *tree.Tree, consumed int, d *doc) string {
	switch {
	case kind == machine.ResultError:
		return "error-result"
	case kind != machine.Unique:
		return "wrong-verdict"
	case consumed != d.tokens || !d.ref.equal(t):
		return "wrong-tree"
	}
	return ""
}

// setupRepeats is how many times the traced run times set-up in one go for
// parser.new_ms; the median is reported.
const setupRepeats = 31

// setupPerWindow is how many set-up repetitions the library workloads time
// after each of the windows slices of their measured loop; setup_s is the
// fastest of them all. One set-up takes well under 5 ms, and on a shared
// 2-vCPU Xeon VM such short bursts ran at one of two speeds, ~1.6x apart,
// switching within a run and from run to run. Timed back to back at
// start-up, ten seeds spread 0.26-0.33 (IQR/median); the median of the
// slices' medians still spread up to 0.24, as it landed on one speed or the
// other; the fastest of all, timed across the run, spread 0.03-0.07.
const setupPerWindow = 15

// setup times building a ready session from the language's source, as the
// CLI does: the .g4 front end, the lexer automaton, and parser.New over the
// fresh grammar (which compiles its tables). It returns the total and the
// parser.New share, in seconds, one sample per repetition. Each repetition
// starts from a collected heap; otherwise whether a collection of earlier
// garbage overlaps it decides its time.
func (l *language) setup(opts parser.Options, reps int) (total, news []float64, err error) {
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := g4.Parse(l.lang.Source)
		if err != nil {
			return nil, nil, err
		}
		g, err := ebnf.Desugar(f.Parser)
		if err != nil {
			return nil, nil, err
		}
		if _, err := lexer.New(f.Lexer); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		if _, err := parser.New(g, opts); err != nil {
			return nil, nil, err
		}
		total = append(total, time.Since(t0).Seconds())
		news = append(news, time.Since(t1).Seconds())
	}
	return total, news, nil
}

func (w libraryWorkload) run(seed int64, seconds float64, traced bool) (metricSet, *run, error) {
	refs := references{}
	docs, err := corpus(refs, w.lang, seed, w.docs, w.minTok, w.maxTok, false)
	if err != nil {
		return nil, nil, err
	}
	g := w.lang.lang.Grammar()
	p, err := parser.New(g, w.opts)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	res := &run{}
	parse := func(d *doc) time.Duration {
		t0 := time.Now()
		r := p.ParseSource(w.lang.lang.Cursor(strings.NewReader(d.src)))
		el := time.Since(t0)
		res.attempted++
		if cause := checkClean(r.Kind, r.Tree, r.Consumed, d); cause != "" {
			res.fail(cause)
		}
		return el
	}
	// Warm-up: one untimed pass fills the session's DFA (json-reader) and
	// its scratch pool; then set-up garbage is collected before timing.
	for _, d := range docs {
		parse(d)
	}
	runtime.GC()

	out := metricSet{}
	if !traced {
		var lat, cycles, setups, peaks []float64
		var cycleTok int
		var cycleBusy time.Duration
		for s := 0; s < windows; s++ {
			if err := resetPeakRSS(); err != nil {
				return nil, nil, err
			}
			loop(docs, rng, seconds/windows, func(_ int, d *doc, cycleEnd bool) {
				el := parse(d)
				lat = append(lat, ms(el))
				cycleTok += d.tokens
				cycleBusy += el
				if cycleEnd {
					cycles = append(cycles, float64(cycleTok)/cycleBusy.Seconds())
					cycleTok, cycleBusy = 0, 0
				}
			})
			peak, err := peakRSSMB()
			if err != nil {
				return nil, nil, err
			}
			peaks = append(peaks, peak)
			total, _, err := w.lang.setup(w.opts, setupPerWindow)
			if err != nil {
				return nil, nil, err
			}
			setups = append(setups, total...)
		}
		out.add("setup_s", slices.Min(setups), "s")
		// Throughput is the median over cycles (each document once) of
		// document tokens per second spent going bytes → Result.
		out.add("tok_per_s", median(cycles), "tok/s")
		out.add("doc_ms_p50", windowed(lat, 0.5), "ms")
		out.add("doc_ms_p99", windowed(lat, 0.99), "ms")
		// Closed loop: a document is due when the loop issues it, so the
		// request latency is the document latency.
		out.add("req_ms_p50", windowed(lat, 0.5), "ms")
		out.add("req_ms_p99", windowed(lat, 0.99), "ms")
		out.add("ok_frac", ratio(float64(res.attempted-res.failed), float64(res.attempted)), "frac")
		out.add("peak_rss_mb", median(peaks), "MB")
		return out, res, nil
	}

	// Traced run, phase 1: untraced, for the engine's counters and the GC
	// share of the real program.
	var cnt counts
	rt0 := readRuntime()
	loop(docs, rng, seconds/2, func(_ int, d *doc, _ bool) {
		r := p.ParseSource(w.lang.lang.Cursor(strings.NewReader(d.src)))
		res.attempted++
		if cause := checkClean(r.Kind, r.Tree, r.Consumed, d); cause != "" {
			res.fail(cause)
		}
		cnt.add(d.tokens, r.Stats, r.Usage)
	})
	gcMetrics(readRuntime().sub(rt0), float64(cnt.tokens), out)
	cnt.report(out)
	_, news, err := w.lang.setup(w.opts, setupRepeats)
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: each document parsed untraced and through the traced
	// composition, alternating which goes first, so the overhead ratio
	// compares the same documents under the same conditions.
	tr := newTracer()
	var cache *prediction.Cache
	if !w.opts.FreshCachePerParse {
		cache = prediction.NewCache()
	}
	c := newComposed(tr, w.lang, g, p.Analysis(), analysis.NewTargetsFor(g, g.Start), p.Certified(), w.opts, cache)
	tparse := func(idx int, d *doc, lt *layerTotals) {
		self, closes := tr.self, tr.closes
		r := c.parse(d.src)
		res.attempted++
		if cause := checkClean(r.kind, r.tree, r.consumed, d); cause != "" {
			res.fail("traced-" + cause)
		}
		if lt != nil {
			lt.record(d, idx, r, tr, self, closes)
		}
	}
	for i, d := range docs {
		tparse(i, d, nil) // warm the composed path's DFA and scratch
	}
	lt := &layerTotals{}
	n := 0
	loop(docs, rng, seconds/2, func(idx int, d *doc, _ bool) {
		n++
		if n%2 == 0 {
			lt.untraced(parse(d).Nanoseconds())
			tparse(idx, d, lt)
		} else {
			tparse(idx, d, lt)
			lt.untraced(parse(d).Nanoseconds())
		}
	})
	lt.report(out)
	if w.opts.FreshCachePerParse {
		out.add("prediction.dfa_states", ratio(float64(lt.dfaStates), float64(lt.fresh)), "count")
	} else {
		_, states := p.CacheSize()
		out.add("prediction.dfa_states", float64(states), "count")
	}
	out.add("parser.new_ms", 1000*median(news), "ms")
	res.spans = lt.spans
	return out, res, nil
}

// loop calls fn on documents in seeded shuffled cycles until seconds pass.
// Only whole cycles run, so every document is sampled equally often.
// fn learns which document ends a cycle.
func loop(docs []*doc, rng *rand.Rand, seconds float64, fn func(idx int, d *doc, cycleEnd bool)) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for k, i := range rng.Perm(len(docs)) {
			fn(i, docs[i], k == len(docs)-1)
		}
	}
}
