package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"costar/internal/analysis"
	"costar/internal/artifact"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/serve"
	"costar/internal/tree"
)

// serveWorkload drives an in-process `costar serve`, booted from compiled
// json and python artifacts with the daemon's default configuration, over
// loopback in a closed loop: callers (at most the host's CPUs) that each
// send their next request when the reply to the last one is in, over one
// keep-alive connection each. An open loop at a fixed Poisson rate was
// tried first; on a shared 2-CPU host its tail latencies spread too widely
// from run to run to bound (see provenance.json).
type serveWorkload struct {
	callers        int
	docsPerLang    int
	minTok, maxTok int // document sizes, log-spaced, in parser tokens
	brokenEvery    int // one request in brokenEvery carries a broken document
	recoverEvery   int // one broken request in recoverEvery asks for ?recover=1
	treeEvery      int // one request in treeEvery asks for ?tree=1
}

// bootsPerWindow is how many servers serve-mixed boots, to time set-up,
// after each slice of its load.
const bootsPerWindow = 3

// sessionOptions are `costar serve`'s defaults: recovering sessions, no
// resource limits.
var sessionOptions = parser.Options{Recover: true}

// request is one call of the mix.
type request struct {
	d       *doc
	recover bool
	tree    bool
}

// typedStatus is serve's wire vocabulary; any other status is a failure.
var typedStatus = map[int]bool{200: true, 400: true, 404: true, 413: true, 422: true, 429: true, 499: true, 500: true, 503: true, 504: true}

// compileArtifact does what `costar compile -lang NAME` does: certify the
// grammar when it vets clean, warm a session on the default synthetic
// corpus (8 files, 200..4000 tokens, generator seeds 1..8), and encode the
// snapshot.
func compileArtifact(l *language) ([]byte, error) {
	g := l.lang.Grammar()
	if grammarlint.Check(g).Clean() {
		if _, _, err := grammarlint.Certify(g); err != nil {
			return nil, err
		}
	}
	p, err := parser.New(g, parser.Options{})
	if err != nil {
		return nil, err
	}
	const warm = 8
	for i := 0; i < warm; i++ {
		target := 200 * math.Pow(4000.0/200, float64(i)/(warm-1))
		r := p.ParseSource(l.lang.Cursor(strings.NewReader(l.gen(int64(i)+1, int(target)))))
		if r.Kind != parser.Unique {
			return nil, fmt.Errorf("%s warm corpus seed %d: %v", l.name, i+1, r.Kind)
		}
	}
	a, err := p.ExportArtifact(l.name, l.lang.Source)
	if err != nil {
		return nil, err
	}
	return artifact.Encode(a), nil
}

// booted is one server start: artifact decode, session load, listener.
type booted struct {
	srv                 *serve.Server
	reg                 *serve.Registry
	decode, load, total time.Duration
}

func boot(arts [][]byte) (*booted, error) {
	t0 := time.Now()
	as := make([]*artifact.Artifact, len(arts))
	for i, b := range arts {
		a, err := artifact.Decode(b)
		if err != nil {
			return nil, err
		}
		as[i] = a
	}
	t1 := time.Now()
	reg := serve.NewRegistry()
	for _, a := range as {
		if _, err := reg.AddArtifact(a, sessionOptions); err != nil {
			return nil, err
		}
	}
	t2 := time.Now()
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0"}, reg)
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &booted{srv: srv, reg: reg, decode: t1.Sub(t0), load: t2.Sub(t1), total: time.Since(t0)}, nil
}

func (w serveWorkload) run(seed int64, seconds float64, traced bool) (metricSet, *run, error) {
	langs := []*language{jsonLang, pythonLang}
	refs := references{}
	rng := rand.New(rand.NewSource(seed))
	clean := map[*language][]*doc{}
	broken := map[*language][]*doc{}
	for _, l := range langs {
		docs, err := corpus(refs, l, seed, w.docsPerLang, w.minTok, w.maxTok, true)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range docs {
			b, err := breakDoc(refs, d, rng)
			if err != nil {
				return nil, nil, err
			}
			broken[l] = append(broken[l], b)
		}
		clean[l] = docs
	}
	arts := make([][]byte, len(langs))
	for i, l := range langs {
		b, err := compileArtifact(l)
		if err != nil {
			return nil, nil, err
		}
		arts[i] = b
	}

	b, err := boot(arts)
	if err != nil {
		return nil, nil, err
	}
	defer b.srv.Drain()

	// The load runs in windows slices. After each, bootsPerWindow further
	// servers are booted, timed from a collected heap, and drained: set-up
	// is sampled across the run, as on the library workloads. The peak
	// memory mark is reset before each slice and read after it (see
	// peakRSSMB), so the extra servers never count in peak_rss_mb, and the
	// GC figures cover the slices only.
	loadSeconds := seconds
	if traced {
		loadSeconds = seconds / 2
	}
	reqs := w.schedule(rng, clean, broken)
	var setups, decodes, loads []float64
	var outs []outcome
	var rtd rtSnap
	var peaks []float64
	var next atomic.Int64
	var last time.Duration // load time so far; slices are laid end to end
	for s := 0; s < windows; s++ {
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		rt0 := readRuntime()
		slice, err := loadFrom(b.srv.Addr(), w.callers, loadSeconds/windows, reqs, &next)
		if err != nil {
			return nil, nil, err
		}
		rtd = rtd.add(readRuntime().sub(rt0))
		p, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		peaks = append(peaks, p)
		var end time.Duration
		for _, o := range slice {
			end = max(end, o.done)
			o.free, o.send, o.done = o.free+last, o.send+last, o.done+last
			outs = append(outs, o)
		}
		last += end

		for i := 0; i < bootsPerWindow; i++ {
			runtime.GC()
			nb, err := boot(arts)
			if err != nil {
				return nil, nil, err
			}
			if err := nb.srv.Drain(); err != nil {
				return nil, nil, err
			}
			setups = append(setups, nb.total.Seconds())
			decodes = append(decodes, ms(nb.decode))
			loads = append(loads, ms(nb.load))
		}
	}
	sent := make([]request, len(outs))
	for i, o := range outs {
		sent[i] = reqs[o.req]
	}
	res := &run{mix: mixShares(sent)}

	var lat, docMS, overhead, late []float64
	var served int64
	for i, o := range outs {
		r := sent[i]
		res.attempted++
		if cause := checkResponse(r, o); cause != "" {
			res.fail(cause)
		}
		if o.err != "" {
			continue
		}
		lat = append(lat, ms(o.done-o.send))
		late = append(late, ms(o.send-o.free))
		docMS = append(docMS, float64(o.elapsedNS)/1e6)
		overhead = append(overhead, ms(o.done-o.send)-float64(o.elapsedNS)/1e6)
		if o.status == http.StatusOK || o.status == http.StatusUnprocessableEntity {
			served += int64(r.d.tokens)
		}
	}

	out := metricSet{}
	if !traced {
		out.add("setup_s", slices.Min(setups), "s") // see setupPerWindow
		out.add("tok_per_s", ratio(float64(served), last.Seconds()), "tok/s")
		out.add("doc_ms_p50", windowed(docMS, 0.5), "ms")
		out.add("doc_ms_p99", windowed(docMS, 0.99), "ms")
		out.add("req_ms_p50", windowed(lat, 0.5), "ms")
		out.add("req_ms_p99", windowed(lat, 0.99), "ms")
		out.add("ok_frac", ratio(float64(res.attempted-res.failed), float64(res.attempted)), "frac")
		out.add("peak_rss_mb", median(peaks), "MB")
		return out, res, nil
	}

	shed, err := scrapeShed(b.srv.Addr())
	if err != nil {
		return nil, nil, err
	}
	out.add("serve.parse_ms_p50", quantile(docMS, 0.5), "ms")
	out.add("serve.overhead_ms_p50", quantile(overhead, 0.5), "ms")
	out.add("serve.overhead_ms_p99", quantile(overhead, 0.99), "ms")
	out.add("serve.shed", float64(shed), "count")
	out.add("loadgen.late_ms_p99", quantile(late, 0.99), "ms")
	out.add("artifact.decode_ms", median(decodes), "ms")
	out.add("artifact.load_ms", median(loads), "ms")
	var dfaStates int
	for _, l := range langs {
		sess, _ := b.reg.Get(l.name)
		_, st := sess.Parser().CacheSize()
		dfaStates += st
	}
	out.add("prediction.dfa_states", float64(dfaStates), "count")
	// GC over the load phase, in the server's process.
	gcMetrics(rtd, float64(served), out)

	// Replay the same request mix in process: each document through the
	// warm serve session (untraced) and through the traced composition over
	// the same artifact, alternating which goes first.
	tr := newTracer()
	comp := map[*language]*composed{}
	for i, l := range langs {
		a, err := artifact.Decode(arts[i])
		if err != nil {
			return nil, nil, err
		}
		rz, err := a.Realize()
		if err != nil {
			return nil, nil, err
		}
		tg := rz.Targets[rz.Grammar.Start]
		if tg == nil {
			tg = analysis.NewTargetsFor(rz.Grammar, rz.Grammar.Start)
		}
		sess, _ := b.reg.Get(l.name)
		comp[l] = newComposed(tr, l, rz.Grammar, rz.Analysis, tg, sess.Certified(), sessionOptions, rz.Cache)
	}
	var cnt counts
	lt := &layerTotals{}
	untraced := func(d *doc) int64 {
		sess, _ := b.reg.Get(d.lang.name)
		t0 := time.Now()
		r := sess.Parse(context.Background(), strings.NewReader(d.src))
		el := time.Since(t0).Nanoseconds()
		res.attempted++
		if cause := checkReplay(r.Kind, r.Tree, r.Consumed, d); cause != "" {
			res.fail(cause)
		}
		cnt.add(d.tokens, r.Stats, r.Usage)
		return el
	}
	tparse := func(i int, d *doc, record bool) {
		self, closes := tr.self, tr.closes
		r := comp[d.lang].parse(d.src)
		res.attempted++
		if cause := checkReplay(r.kind, r.tree, r.consumed, d); cause != "" {
			res.fail("traced-" + cause)
		}
		if record {
			lt.record(d, i, r, tr, self, closes)
		}
	}
	for i, r := range reqs[:min(len(reqs), 2*w.docsPerLang)] {
		tparse(i, r.d, false) // warm the composed path's scratch
	}
	deadline := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		d := reqs[i%len(reqs)].d
		if i%2 == 0 {
			lt.untraced(untraced(d))
			tparse(i, d, true)
		} else {
			tparse(i, d, true)
			lt.untraced(untraced(d))
		}
	}
	cnt.report(out)
	lt.report(out)
	res.spans = lt.spans
	return out, res, nil
}

// scheduleRounds is how many rounds of the mix schedule builds; callers
// cycle through them.
const scheduleRounds = 40

// schedule builds the request mix. It comes in rounds that address every
// document once, in seeded order; within the rounds, every brokenEvery-th
// slot of a document carries its broken variant (every recoverEvery-th of
// those with ?recover=1) and every treeEvery-th asks for ?tree=1. The mix
// shares are thus exact, and a run's tail never hinges on how often a draw
// picked the largest document.
func (w serveWorkload) schedule(rng *rand.Rand, clean, broken map[*language][]*doc) []request {
	type slot struct {
		l *language
		k int
	}
	var slots []slot
	for _, l := range []*language{jsonLang, pythonLang} {
		for k := range clean[l] {
			slots = append(slots, slot{l, k})
		}
	}
	var reqs []request
	var brokenSeen int
	for round := 0; round < scheduleRounds; round++ {
		for _, i := range rng.Perm(len(slots)) {
			s := slots[i]
			r := request{d: clean[s.l][s.k], tree: (i+round)%w.treeEvery == 0}
			if (i+3*round)%w.brokenEvery == 0 {
				r.d = broken[s.l][s.k]
				r.recover = brokenSeen%w.recoverEvery == 0
				brokenSeen++
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// mixShares measures the realized request mix.
func mixShares(reqs []request) map[string]float64 {
	var py, brk, rec, tree float64
	for _, r := range reqs {
		if r.d.lang == pythonLang {
			py++
		}
		if r.d.broken {
			brk++
		}
		if r.recover {
			rec++
		}
		if r.tree {
			tree++
		}
	}
	n := float64(len(reqs))
	return map[string]float64{"python_share": py / n, "broken_share": brk / n, "recover_share_of_broken": ratio(rec, brk), "tree_share": tree / n}
}

// checkResponse is the reference check for one served request.
func checkResponse(r request, o outcome) string {
	switch {
	case o.err != "":
		return "transport"
	case !typedStatus[o.status]:
		return "status"
	case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable || o.status == http.StatusRequestEntityTooLarge:
		return "shed"
	case o.kind == "Error":
		return "error-result"
	}
	if !r.d.broken {
		switch {
		case o.status != http.StatusOK || o.kind != "Unique":
			return "wrong-verdict"
		case o.tokens != r.d.tokens || (r.tree && !o.treeMatch):
			return "wrong-tree"
		}
		return ""
	}
	if o.status == http.StatusUnprocessableEntity && o.kind == "Reject" && o.diags > 0 {
		return ""
	}
	if r.recover && o.status == http.StatusOK && o.kind == "Recovered" && o.diags > 0 && (!r.tree || o.hasTree) {
		return ""
	}
	return "wrong-verdict"
}

// checkReplay is the reference check for an in-process replayed document.
func checkReplay(kind machine.ResultKind, t *tree.Tree, consumed int, d *doc) string {
	switch {
	case !d.broken:
		return checkClean(kind, t, consumed, d)
	case kind == machine.Reject || kind == machine.Recovered:
		return ""
	case kind == machine.ResultError:
		return "error-result"
	}
	return "wrong-verdict"
}

// scrapeShed sums costar_shed_total over reasons from /metrics.
func scrapeShed(addr string) (int64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "costar_shed_total{") {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}
