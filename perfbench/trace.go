package main

import (
	"context"
	"strings"
	"time"

	"costar/internal/analysis"
	"costar/internal/grammar"
	"costar/internal/languages/pylang"
	"costar/internal/lexer"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/prediction"
	"costar/internal/source"
	"costar/internal/tree"
)

// layer names a traced span kind. Spans nest: the lexer runs inside the
// cursor pulls that prediction's lookahead and the machine's consumes
// trigger, so each layer's self time excludes the layers it calls.
type layer int

const (
	outside layer = iota // harness glue: reader, scanner and cursor construction
	lexLayer
	layoutLayer
	predictLayer
	machineLayer
	recoverLayer
	nLayers
)

var layerNames = [nLayers]string{"outside", "lexer", "layout", "prediction", "machine", "recover"}

// tracer attributes wall time to layers. Every enter and exit reads the
// clock once and charges the interval since the previous reading to the
// layer on top of the stack, so the self times of one document sum to its
// traced wall time by construction.
type tracer struct {
	epoch  time.Time
	last   int64
	begun  int64
	stack  []layer
	self   [nLayers]int64 // self time, ns
	closes [nLayers]int64 // intervals charged, one clock read each
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), stack: make([]layer, 0, 16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) charge(n int64) {
	top := t.stack[len(t.stack)-1]
	t.self[top] += n - t.last
	t.closes[top]++
	t.last = n
}

func (t *tracer) begin() {
	t.stack = append(t.stack[:0], outside)
	t.last = t.now()
	t.begun = t.last
}

func (t *tracer) enter(l layer) {
	t.charge(t.now())
	t.stack = append(t.stack, l)
}

func (t *tracer) exit() {
	t.charge(t.now())
	t.stack = t.stack[:len(t.stack)-1]
}

// end closes the document span and returns its start and end.
func (t *tracer) end() (start, end int64) {
	t.charge(t.now())
	return t.begun, t.last
}

// clockSample measures the cost of one tracer event (a clock read plus
// bookkeeping) over a small batch. The traced loops take a sample after
// every traced document and report the median, so the calibration follows
// the host through the run: one calibration at the end read anywhere from
// 43 to 75 ns on a shared 2-vCPU Xeon VM, and moved trace.calibrated_ratio by up to 0.1. Layer
// self times are reported with that cost subtracted once per interval.
func clockSample() float64 {
	const batch = 1000
	t := newTracer()
	t.begin()
	t0 := time.Now()
	for i := 0; i < batch; i++ {
		t.enter(lexLayer)
		t.exit()
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * batch)
}

// timedPredictor wraps the production predictor in a prediction span.
type timedPredictor struct {
	ap *prediction.AdaptivePredictor
	tr *tracer
}

func (p *timedPredictor) Predict(nt grammar.NTID, suffix *machine.SuffixStack, la *source.Cursor) machine.Prediction {
	p.tr.enter(predictLayer)
	r := p.ap.Predict(nt, suffix, la)
	p.tr.exit()
	return r
}

// composed is the traced twin of one parser session. It composes the public
// pieces parser.parse composes — a cursor over a lexer pull (plus the
// language's streaming layout), an AdaptivePredictor, machine.Multistep,
// and machine.RecoverFrom after a Reject — and reuses its Governor,
// predictor and Mem through their Reset methods as the session's scratch
// pool does, so the traced path runs the same program as the untraced one.
type composed struct {
	g         *grammar.Grammar
	an        *analysis.Analysis
	tg        *analysis.Targets
	certified bool
	recover   bool
	limits    machine.Limits
	fresh     bool              // a new DFA per document (Options.FreshCachePerParse)
	cache     *prediction.Cache // the shared DFA when !fresh
	lex       *lexer.Lexer
	layout    func(next func() (lexer.Lexeme, bool, error)) func() (grammar.Token, bool, error)

	gov  *machine.Governor
	ap   *prediction.AdaptivePredictor
	mem  *machine.Mem
	pred *timedPredictor
	tr   *tracer
}

func newComposed(tr *tracer, l *language, g *grammar.Grammar, an *analysis.Analysis, tg *analysis.Targets,
	certified bool, opts parser.Options, cache *prediction.Cache) *composed {
	c := &composed{
		g: g, an: an, tg: tg, certified: certified,
		recover: opts.Recover, limits: opts.Limits, fresh: opts.FreshCachePerParse, cache: cache,
		lex: l.lang.Lexer(), gov: machine.NewGovernor(nil, opts.Limits),
		mem: machine.NewMem(), tr: tr,
	}
	if l == pythonLang {
		c.layout = pylang.StreamLayout
	}
	c.ap = prediction.NewWith(g, tg, prediction.Options{Cache: cache, Governor: c.gov})
	c.pred = &timedPredictor{ap: c.ap, tr: tr}
	return c
}

// tracedResult is what a composed parse reports about one document.
type tracedResult struct {
	kind      machine.ResultKind
	tree      *tree.Tree
	consumed  int
	repairs   int
	recoverNs int64 // wall time inside RecoverFrom, nested layers included
	dfaStates int   // states in a fresh per-document DFA
	start     int64
	end       int64
}

func (c *composed) parse(src string) tracedResult {
	tr := c.tr
	tr.begin()
	sc := c.lex.ScanReader(strings.NewReader(src))
	var pull source.Pull
	if c.layout == nil {
		// lexer.Lexer.Pull: the next non-skip lexeme.
		pull = func() (grammar.Token, bool, error) {
			tr.enter(lexLayer)
			for {
				lx, ok, err := sc.Next()
				if err != nil || !ok {
					tr.exit()
					return grammar.Token{}, false, err
				}
				if !lx.Skip {
					tr.exit()
					return lx.Tok, true, nil
				}
			}
		}
	} else {
		next := func() (lexer.Lexeme, bool, error) {
			tr.enter(lexLayer)
			lx, ok, err := sc.Next()
			tr.exit()
			return lx, ok, err
		}
		inner := c.layout(next)
		pull = func() (grammar.Token, bool, error) {
			tr.enter(layoutLayer)
			t, ok, err := inner()
			tr.exit()
			return t, ok, err
		}
	}
	cur := source.FromPull(c.g.Compiled(), pull)
	tr.enter(predictLayer)
	cache := c.cache
	if c.fresh {
		cache = prediction.NewCache()
	}
	c.ap.Reset(c.tg, prediction.Options{Cache: cache, Governor: c.gov})
	tr.exit()
	mopts := machine.Options{Governor: c.gov, Certified: c.certified}

	tr.enter(machineLayer)
	c.gov.Reset(context.Background(), c.limits)
	mres := machine.Multistep(c.g, c.pred, machine.InitSourceIn(c.mem, c.g, c.g.Start, cur), mopts)
	tr.exit()
	var out tracedResult
	if mres.Kind == machine.Reject && c.recover {
		r0 := tr.now()
		tr.enter(recoverLayer)
		rr := machine.RecoverFrom(c.g, c.pred, c.an, mres, mopts)
		tr.exit()
		out.recoverNs = tr.last - r0
		mres = rr.Result
		out.repairs = rr.Repairs
	}
	out.kind, out.tree, out.consumed = mres.Kind, mres.Tree, mres.Consumed
	if c.fresh {
		_, out.dfaStates = cache.Size()
	}
	// Clearing the machine's scratch is machine work, proportional to the
	// document; it detaches the tree arena, so out.tree stays valid.
	tr.enter(machineLayer)
	c.mem.Reset()
	tr.exit()
	out.start, out.end = tr.end()
	return out
}

// span is one traced document: its wall interval and per-layer self times.
// Spans stay in memory and are written out when the run ends.
type span struct {
	Doc     int              `json:"doc"`
	Lang    string           `json:"lang"`
	Tokens  int              `json:"tokens"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	SelfNS  map[string]int64 `json:"self_ns"`
}

// layerTotals accumulates traced documents for the per-layer report.
type layerTotals struct {
	self, closes [nLayers]int64
	wallNS       int64 // traced end-to-end time
	untracedNS   int64 // the same documents, untraced
	// Per document, in the order of spans: clock reads charged, and the
	// untraced time of the same document parsed next to it.
	docCloses, docUntraced []int64
	clock                  []float64 // clockSample after each document
	tokens, bytes          int64
	docs                   int
	broken, repairs        int
	recoverNS              int64
	dfaStates, fresh       int64
	spans                  []span
}

// record adds one traced document; self and closes are the tracer's
// totals from just before the document was parsed.
func (lt *layerTotals) record(d *doc, idx int, r tracedResult, tr *tracer, self, closes [nLayers]int64) {
	sp := span{Doc: idx, Lang: d.lang.name, Tokens: d.tokens, StartNS: r.start, EndNS: r.end, SelfNS: map[string]int64{}}
	var docCloses int64
	for l := layer(0); l < nLayers; l++ {
		ds, dc := tr.self[l]-self[l], tr.closes[l]-closes[l]
		lt.self[l] += ds
		lt.closes[l] += dc
		docCloses += dc
		if ds != 0 {
			sp.SelfNS[layerNames[l]] = ds
		}
	}
	lt.spans = append(lt.spans, sp)
	lt.docCloses = append(lt.docCloses, docCloses)
	lt.clock = append(lt.clock, clockSample())
	lt.wallNS += r.end - r.start
	lt.tokens += int64(d.tokens)
	lt.bytes += int64(len(d.src))
	lt.docs++
	if d.broken {
		lt.broken++
		lt.repairs += r.repairs
		lt.recoverNS += r.recoverNs
	}
	if r.dfaStates > 0 {
		lt.dfaStates += int64(r.dfaStates)
		lt.fresh++
	}
}

// untraced records the untraced time of the document just recorded (or
// about to be).
func (lt *layerTotals) untraced(ns int64) {
	lt.untracedNS += ns
	lt.docUntraced = append(lt.docUntraced, ns)
}

// corrected is a layer's self time with the calibrated cost of the clock
// reads charged to it removed.
func (lt *layerTotals) corrected(l layer, clockNS float64) float64 {
	v := float64(lt.self[l]) - float64(lt.closes[l])*clockNS
	if v < 0 {
		return 0
	}
	return v
}

// report renders the traced layer metrics. The per-layer ns figures have
// the calibrated clock cost removed. Three ratios describe the tracing:
//
//   - trace.overhead_frac: traced over untraced time on the same documents,
//     uncorrected, minus 1.
//   - trace.reconcile_ratio: the layers' raw self times over the traced
//     end-to-end time. Every traced interval is charged to some layer, so
//     this is 1 minus the share of harness glue (outside).
//   - trace.calibrated_ratio: a document's traced time with the calibrated
//     clock cost removed, over its untraced time, the median over
//     documents. It is 1 when the calibration accounts for what tracing
//     adds; a wrong calibration moves it. A median over pairs, because a
//     collection cycle that lands in one parse of a pair moves that pair.
func (lt *layerTotals) report(out metricSet) {
	clockNS := median(lt.clock)
	tok := float64(lt.tokens)
	var sum int64
	for l := lexLayer; l < nLayers; l++ {
		sum += lt.self[l]
	}
	var calibrated []float64
	for i := range min(len(lt.spans), len(lt.docUntraced)) {
		c := float64(lt.spans[i].EndNS-lt.spans[i].StartNS) - float64(lt.docCloses[i])*clockNS
		calibrated = append(calibrated, ratio(c, float64(lt.docUntraced[i])))
	}
	out.add("lexer.ns_per_byte", ratio(lt.corrected(lexLayer, clockNS), float64(lt.bytes)), "ns/B")
	out.add("lexer.bytes_per_tok", ratio(float64(lt.bytes), tok), "B/tok")
	out.add("pylang.layout_ns_per_tok", ratio(lt.corrected(layoutLayer, clockNS), tok), "ns/tok")
	out.add("prediction.ns_per_tok", ratio(lt.corrected(predictLayer, clockNS), tok), "ns/tok")
	out.add("machine.self_ns_per_tok", ratio(lt.corrected(machineLayer, clockNS), tok), "ns/tok")
	out.add("machine.recover_ms_per_doc", ratio(float64(lt.recoverNS)/1e6, float64(lt.broken)), "ms")
	out.add("machine.repairs_per_doc", ratio(float64(lt.repairs), float64(lt.broken)), "count")
	out.add("trace.overhead_frac", ratio(float64(lt.wallNS), float64(lt.untracedNS))-1, "frac")
	out.add("trace.reconcile_ratio", ratio(float64(sum), float64(lt.wallNS)), "frac")
	out.add("trace.calibrated_ratio", median(calibrated), "frac")
	out.add("trace.clock_ns", clockNS, "ns")
}
