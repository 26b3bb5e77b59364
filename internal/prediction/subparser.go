// Package prediction implements CoStar's adaptivePredict (Section 3.4): the
// combination of fast, cached, imprecise SLL prediction with a failover to
// slow, precise LL prediction.
//
// Both modes launch one subparser per right-hand side of the decision
// nonterminal and advance them in lockstep over the remaining tokens,
// closing over push/return operations between consumes. LL subparsers
// simulate on the machine's real suffix stack and are exact; SLL subparsers
// carry only local context and, when their stack empties, return into every
// statically possible continuation (analysis.Targets — the "stable return
// frames" of Section 3.5), which makes SLL an overapproximation of LL.
// SLL steps are cached in a DFA whose states are keyed by their subparser
// sets, as (alt, stack-node id) pairs over a hash-consed node table; the
// cache persists across decisions, across a whole input, and (via parser
// sessions) across inputs. The cache is safe for concurrent use: states
// are content-addressed, so goroutines racing to extend the DFA intern
// identical states and converge (see Cache), which lets one warm DFA
// serve many parsing goroutines at once.
//
// Everything here runs on the compiled grammar: configs hold dense symbol
// IDs, the visited sets are bitsets, and simulated stacks are nodes of a
// graph-structured stack (gss.go) with integer identities — the §6.1
// string-comparison cost the paper measures is gone from this hot path.
package prediction

import (
	"bytes"
	"sort"

	"costar/internal/arena"
	"costar/internal/grammar"
	"costar/internal/keyset"
	"costar/internal/machine"
)

// config is one subparser θ = (γ, Ψ): a candidate production (identified by
// its global index alt) plus a simulated suffix stack. A nil stack means
// the subparser has simulated a complete parse ("halted"); it survives only
// if the input ends exactly here.
type config struct {
	alt     int
	stack   *node
	visited machine.NTSet
}

// anomalyKind classifies events that make an SLL outcome untrustworthy.
type anomalyKind uint8

const (
	anomalyNone anomalyKind = iota
	// anomalyLeftRec: a subparser was killed by dynamic left-recursion
	// detection. In SLL mode the overapproximated context can make this
	// spurious, so the result must be recomputed in LL mode; in LL mode it
	// is genuine and becomes a LeftRecursive error.
	anomalyLeftRec
	// anomalyBudget: the per-call closure step budget was exhausted — a
	// defensive backstop, unreachable for well-formed grammars. Every
	// exhaustion is counted in Stats.BudgetExhaustions; in SLL mode the
	// decision falls back to LL, in LL mode it becomes a structured error.
	anomalyBudget
	// anomalyGoverned: the parse's Governor halted the closure — context
	// canceled, deadline expired, or the cumulative MaxClosureWork limit
	// exhausted. The decision must abort with govErr immediately (retrying
	// in LL mode would burn the same budget), and the result must never be
	// interned into the shared SLL cache, where it would poison decisions
	// of unrelated parses sharing the DFA.
	anomalyGoverned
)

// closureResult is the outcome of closing a set of configs: the stable
// configs (top symbol is a terminal, or halted), plus anomaly bookkeeping.
type closureResult struct {
	stable  []config
	anomaly anomalyKind
	lrNT    grammar.NTID   // offending nonterminal for anomalyLeftRec
	govErr  *machine.Error // sticky governor failure for anomalyGoverned
}

// defaultClosureBudget bounds the number of closure expansions per call
// unless Options.ClosureBudget overrides it; generous enough for any
// realistic grammar, small enough to stop runaway fuzz inputs quickly.
const defaultClosureBudget = 1 << 20

// mode distinguishes the two prediction strategies where their pop
// behaviour differs.
type mode uint8

const (
	modeLL mode = iota
	modeSLL
)

// engine carries the pieces shared by all prediction calls: the compiled
// grammar, its position numbering and static analyses (immutable), the
// per-parse governor, the per-call closure budget, a pointer to the
// predictor's Stats so budget exhaustions are reported rather than silently
// absorbed, and the reused scratch buffers.
type engine struct {
	c       *grammar.Compiled
	pos     positions
	targets *Targets
	gov     *machine.Governor
	budget  int // per-closure-call expansion budget
	stats   *Stats
	scr     *scratch
}

// scratch is the engine's reusable prediction memory: worklists, the dedup
// set, alt summaries, the arenas configs are built in, and the memo
// cacheGen.intern translates scratch nodes through. Everything here is
// recycled — buffers across calls, arenas and the memo at the start of
// each decision — so the warm prediction path allocates nothing.
//
// Lifetime contract: a []config returned by closure (res.stable), move, or
// altSummary is valid only until the engine's next call of the same kind,
// and every scratch node and visited set dies when the current decision
// ends. What a DFA state retains is translated by cacheGen.intern into the
// generation's node table (stacks) and cloned (visited sets and slices);
// no published state references scratch.
type scratch struct {
	work     []config
	stable   []config
	moved    []config
	initial  []config
	keyed    []keyed // cacheGen.intern's sort buffer
	key      []byte  // cacheGen.intern's key buffer
	seen     keyset.Set[dedupKey]
	alts     []int
	halted   []int
	nodes    arena.Arena[node]  // closure- and move-built stack nodes
	nNodes   int32              // scratch nodes this decision; ids are -1..-nNodes
	memo     []*node            // scratch node → table node, by -id-1
	memoUsed int                // memo prefix written this decision
	words    arena.Slab[uint64] // visited-set overflow words
}

// beginDecision recycles the decision-scoped arenas and the intern memo.
// Safe because nothing allocated from them survives a decision (see
// scratch).
func (e *engine) beginDecision() {
	e.scr.nodes.Reset()
	e.scr.words.Reset()
	clear(e.scr.memo[:e.scr.memoUsed])
	e.scr.nNodes, e.scr.memoUsed = 0, 0
}

// push allocates a scratch node from the decision arena.
func (e *engine) push(f machine.SuffixFrame, pos int32, below *node) *node {
	e.scr.nNodes++
	return e.scr.nodes.New(node{f: f, below: below, pos: pos, id: -e.scr.nNodes})
}

// below returns the node under n. An LL scratch node whose tail is still
// the machine's real stack materializes that stack's top frame here, once:
// later pops through n reuse the same node, so dedup sees one identity per
// real frame.
func (e *engine) below(n *node) *node {
	if n.below == nil && n.real != nil {
		b := e.push(n.real.F, posOpaque, nil)
		b.real = n.real.Below
		n.below, n.real = b, nil
	}
	return n.below
}

// Targets is re-exported from analysis to keep this package's surface
// self-contained.
type Targets = targetsAlias

// closure drives every config to a stable configuration, expanding
// nonterminals into all their right-hand sides (push), popping exhausted
// frames (return), and fanning empty SLL stacks out to their static return
// targets. Left-recursive expansions kill the config and record an anomaly.
//
// The input slice is consumed; the returned res.stable aliases engine
// scratch and is valid until the next closure call (cacheGen.intern
// translates what it keeps).
func (e *engine) closure(m mode, in []config) (res closureResult) {
	budget := e.budget
	work := append(e.scr.work[:0], in...)
	stable := e.scr.stable[:0]
	seen := &e.scr.seen
	seen.Reset()
	defer func() {
		// Hand the (possibly grown) buffers back so later calls reuse them.
		e.scr.work = work[:0]
		e.scr.stable = stable
		res.stable = stable
	}()
	for len(work) > 0 {
		if budget--; budget < 0 {
			e.stats.BudgetExhaustions++
			res.anomaly = anomalyBudget
			return res
		}
		if gErr := e.gov.ClosureTick(1); gErr != nil {
			res.anomaly = anomalyGoverned
			res.govErr = gErr
			return res
		}
		cfg := work[len(work)-1]
		work = work[:len(work)-1]

		if !seen.Add(keyOf(cfg)) {
			continue
		}

		if cfg.stack == nil {
			stable = append(stable, cfg)
			continue
		}
		top := cfg.stack.f
		if len(top.Rest) == 0 {
			if below := e.below(cfg.stack); below != nil {
				// Ordinary return to the caller frame.
				work = append(work, config{
					alt:     cfg.alt,
					stack:   below,
					visited: cfg.visited.RemoveIn(&e.scr.words, top.Lhs),
				})
				continue
			}
			if m == modeLL || top.Lhs == grammar.NoNT {
				// Bottom of the real parse: a complete simulated parse.
				work = append(work, config{alt: cfg.alt, visited: cfg.visited})
				continue
			}
			// SLL: the local context is exhausted at nonterminal top.Lhs —
			// return into every statically possible continuation.
			v := cfg.visited.RemoveIn(&e.scr.words, top.Lhs)
			for _, rt := range e.targets.For(top.Lhs) {
				work = append(work, config{
					alt:     cfg.alt,
					stack:   e.push(machine.SuffixFrame{Lhs: rt.Lhs, Rest: rt.Rest}, e.pos.of(rt.Lhs, rt.Prod, rt.Dot+1), nil),
					visited: v,
				})
			}
			if e.targets.CanFinish(top.Lhs) {
				work = append(work, config{alt: cfg.alt, visited: v})
			}
			continue
		}
		head := top.Rest[0]
		if head.IsT() {
			stable = append(stable, cfg)
			continue
		}
		// Push: expand the nonterminal into each right-hand side.
		x := head.NT()
		if cfg.visited.Contains(x) {
			if res.anomaly == anomalyNone {
				res.anomaly = anomalyLeftRec
				res.lrNT = x
			}
			continue // kill this subparser
		}
		prods := e.c.ProdsFor(x)
		if len(prods) == 0 {
			// Undefined nonterminal: derives nothing; the subparser dies.
			// (Validated grammars never reach this.)
			continue
		}
		caller := machine.SuffixFrame{Lhs: top.Lhs, Rest: top.Rest[1:]}
		below := e.push(caller, advance(top, cfg.stack.pos), e.below(cfg.stack))
		v := cfg.visited.AddIn(&e.scr.words, x)
		for _, pi := range prods {
			work = append(work, config{
				alt:     cfg.alt,
				stack:   e.push(machine.SuffixFrame{Lhs: x, Rest: e.c.Rhs(pi)}, e.pos.of(x, pi, 0), below),
				visited: v,
			})
		}
	}
	return res
}

// move advances every stable config across terminal t: configs whose top
// symbol matches consume it (and reset their visited set, mirroring the
// machine's consume); mismatching and halted configs die. An input terminal
// the grammar does not mention (NoTerm) matches nothing. The returned slice
// aliases engine scratch and is valid until the next move call.
func (e *engine) move(cfgs []config, t grammar.TermID) []config {
	out := e.scr.moved[:0]
	for _, cfg := range cfgs {
		if cfg.stack == nil {
			continue // claimed the parse ends here, but input continues
		}
		top := cfg.stack.f
		if len(top.Rest) == 0 || !top.Rest[0].IsT() || top.Rest[0].Term() != t {
			continue
		}
		out = append(out, config{
			alt:   cfg.alt,
			stack: e.push(machine.SuffixFrame{Lhs: top.Lhs, Rest: top.Rest[1:]}, advance(top, cfg.stack.pos), e.below(cfg.stack)),
		})
	}
	e.scr.moved = out[:0]
	return out
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Fingerprint frame markers: every frame is introduced by fpFrame and the
// serialization ends with fpLive or fpHalted, so the packed byte string is
// prefix-free across configs with different stack shapes.
const (
	fpLive   = 0
	fpFrame  = 1
	fpHalted = 2
	fpVisit  = 3
)

// appendFingerprint serializes the config's content as packed int32 bytes:
// per frame its nonterminal, position, and remaining symbols, optionally
// followed by the visited set (withVisited=false for state content; the
// visited set is irrelevant once stable, because the next move clears it).
// Content fingerprints do not decide state identity — node ids do (see
// cacheGen.intern) — they give Export an order that is the same in every
// process and independent of interning order.
func (c config) appendFingerprint(b []byte, withVisited bool) []byte {
	b = appendInt32(b, int32(c.alt))
	for s := c.stack; s != nil; s = s.below {
		b = append(b, fpFrame)
		b = appendInt32(b, int32(s.f.Lhs))
		b = appendInt32(b, s.pos)
		b = appendInt32(b, int32(len(s.f.Rest)))
		for _, sym := range s.f.Rest {
			b = appendInt32(b, int32(sym))
		}
	}
	if c.stack == nil {
		b = append(b, fpHalted)
	} else {
		b = append(b, fpLive)
	}
	if withVisited {
		b = append(b, fpVisit)
		b = c.visited.AppendWords(b)
	}
	return b
}

// fingerprint is appendFingerprint as an immutable string key.
func (c config) fingerprint(withVisited bool) string {
	return string(c.appendFingerprint(nil, withVisited))
}

// canonicalKey orders cfgs in place by content (by alt, then content
// fingerprint) and returns the state's content key: one anomaly byte
// followed by the length-prefixed config fingerprints in sorted order.
// Export sorts states by it. Fingerprints are built once each into a
// single shared buffer and compared as byte slices, never as per-config
// strings.
func canonicalKey(anomalous bool, cfgs []config) string {
	// Presize exactly (per config: 4-byte prefix + 4-byte alt + 1
	// terminator; per frame: 13-byte header + 4 bytes per remaining
	// symbol): the key of a large state runs to megabytes.
	size := 1
	for i := range cfgs {
		size += 9
		for s := cfgs[i].stack; s != nil; s = s.below {
			size += 13 + 4*len(s.f.Rest)
		}
	}
	buf := make([]byte, 0, size)
	if anomalous {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	offs := make([]int, len(cfgs)+1) // offs[i]: start of config i's length prefix
	offs[0] = 1
	for i := range cfgs {
		buf = appendInt32(buf, 0) // placeholder, patched below
		start := len(buf)
		buf = cfgs[i].appendFingerprint(buf, false)
		n := int32(len(buf) - start)
		buf[start-4], buf[start-3], buf[start-2], buf[start-1] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		offs[i+1] = len(buf)
	}
	fp := func(i int) []byte { return buf[offs[i]+4 : offs[i+1]] }
	idx := make([]int, len(cfgs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if cfgs[i].alt != cfgs[j].alt {
			return cfgs[i].alt < cfgs[j].alt
		}
		return bytes.Compare(fp(i), fp(j)) < 0
	})
	inOrder := true
	for i, j := range idx {
		if i != j {
			inOrder = false
			break
		}
	}
	if inOrder {
		return string(buf)
	}
	sorted := make([]config, len(cfgs))
	for a, i := range idx {
		sorted[a] = cfgs[i]
	}
	copy(cfgs, sorted)
	key := make([]byte, 1, len(buf))
	key[0] = buf[0]
	for _, i := range idx {
		key = append(key, buf[offs[i]:offs[i+1]]...)
	}
	return string(key)
}

// altSummary returns the distinct alts over stable configs (halted and
// live), ascending. The returned slices alias engine scratch and are valid
// until the next altSummary call; cacheGen.intern copies what it retains. The
// dedup is a linear scan — a decision has at most a handful of alternatives,
// where a map costs more than it saves.
func (e *engine) altSummary(cfgs []config) (alts []int, haltedAlts []int) {
	alts, haltedAlts = e.scr.alts[:0], e.scr.halted[:0]
	for _, c := range cfgs {
		if !containsInt(alts, c.alt) {
			alts = append(alts, c.alt)
		}
		if c.stack == nil && !containsInt(haltedAlts, c.alt) {
			haltedAlts = append(haltedAlts, c.alt)
		}
	}
	sort.Ints(alts)
	sort.Ints(haltedAlts)
	e.scr.alts, e.scr.halted = alts[:0], haltedAlts[:0]
	return alts, haltedAlts
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
