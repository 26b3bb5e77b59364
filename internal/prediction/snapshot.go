package prediction

// Snapshot/import layer for the SLL DFA cache: the piece of a parser
// session that is expensive to rebuild (it is warmed by parsing a corpus)
// and the reason ahead-of-time artifacts (internal/artifact) exist.
//
// A snapshot mirrors the live generation: the stack-node table once, as
// grammar positions, and every state's configs as (alt, node, visited)
// triples over it. Three rules keep an imported generation
// indistinguishable from a natively warmed one:
//
//   - Frames are stored as (Prod, Dot) and rebuilt as Rhs(Prod)[Dot:], so
//     every Rest aliases the compiled production array and carries the
//     same frame position closure would give it. Node identity, closure
//     dedup, and state keys all rest on those positions; a snapshot that
//     serialized the symbols themselves would import nodes that never
//     merge with natively built ones.
//
//   - Nodes, configs, and visited sets are allocated fresh by Import and
//     owned by the new generation, exactly like nodes cacheGen.intern adds.
//
//   - Identities are recomputed, never read: node keys from the rebuilt
//     frames, state keys, uniqueAlt, and haltedAlts from the rebuilt
//     configs.
//
// Export is deterministic (states and configs in content order, nodes
// numbered by first use, edges by terminal, starts by nonterminal) so that
// identical warm-ups produce byte-identical artifacts and golden files are
// stable.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"costar/internal/grammar"
	"costar/internal/machine"
)

// NodeSnapshot is one node of the cache's stack-node table: a frame as a
// grammar position plus the index of the node below it, -1 at the bottom
// of the stack. Prod < 0 means the frame's Rest is empty (everything after
// the occurrence was consumed); otherwise Rest is Rhs(Prod)[Dot:]. Below
// always refers to an earlier node, so the table is stored bottom-up.
type NodeSnapshot struct {
	Lhs   grammar.NTID
	Prod  int32
	Dot   int32
	Below int32
}

// ConfigSnapshot is one subparser configuration: its alternative, the
// index of its top stack node (-1: halted, a complete simulated parse),
// and its visited-set members ascending.
type ConfigSnapshot struct {
	Alt     int32
	Node    int32
	Visited []int32
}

// StateSnapshot is one DFA state: its configs (in content order), anomaly
// flag, and outgoing edges as parallel (terminal, state index) arrays
// sorted by terminal. haltedAlts and uniqueAlt are derived facts and
// deliberately not stored — the import recomputes them.
type StateSnapshot struct {
	Anomalous  bool
	Configs    []ConfigSnapshot
	EdgeTerms  []int32
	EdgeStates []int32
}

// StartSnapshot maps a decision nonterminal to its start state's index.
type StartSnapshot struct {
	NT    grammar.NTID
	State int32
}

// CacheSnapshot is a full warmed-DFA snapshot: the node table once, every
// interned state, and the start-state table, with all cross-references by
// index.
type CacheSnapshot struct {
	Nodes  []NodeSnapshot
	Starts []StartSnapshot
	States []StateSnapshot
}

// Export snapshots the cache's current generation. cg must be the compiled
// grammar the cache was warmed against. The snapshot is deterministic:
// states are ordered by content key (canonicalKey), their configs by
// content, and nodes are numbered bottom-up in the order those configs
// first reach them — so re-exporting an identical cache, however it was
// built, yields an identical value.
func (c *Cache) Export(cg *grammar.Compiled) (CacheSnapshot, error) {
	gen := c.gen.Load()
	gen.mu.Lock()
	type entry struct {
		st   *dfaState
		key  string
		cfgs []config
	}
	es := make([]entry, 0, len(gen.states))
	for _, st := range gen.states {
		es = append(es, entry{st: st})
	}
	gen.mu.Unlock()
	for i := range es {
		es[i].cfgs = slices.Clone(es[i].st.configs)
		es[i].key = canonicalKey(es[i].st.anomalous, es[i].cfgs)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	index := make(map[*dfaState]int32, len(es))
	for i, e := range es {
		index[e.st] = int32(i)
	}

	var snap CacheSnapshot
	if len(es) == 0 {
		return snap, nil
	}
	pos := newPositions(cg)
	nodeIndex := make(map[*node]int32)
	var number func(n *node) int32
	number = func(n *node) int32 {
		if n == nil {
			return -1
		}
		if i, ok := nodeIndex[n]; ok {
			return i
		}
		ns := NodeSnapshot{Lhs: n.f.Lhs, Prod: -1, Below: number(n.below)}
		if n.pos >= 0 {
			prod, dot := pos.prodDot(n.pos)
			ns.Prod, ns.Dot = int32(prod), int32(dot)
		}
		i := int32(len(snap.Nodes))
		snap.Nodes = append(snap.Nodes, ns)
		nodeIndex[n] = i
		return i
	}
	snap.States = make([]StateSnapshot, len(es))
	for i, e := range es {
		ss := StateSnapshot{Anomalous: e.st.anomalous}
		if len(e.cfgs) > 0 {
			ss.Configs = make([]ConfigSnapshot, len(e.cfgs))
			for j, cfg := range e.cfgs {
				if cfg.stack != nil && cfg.stack.pos == posOpaque {
					return CacheSnapshot{}, fmt.Errorf("prediction: cache export: state holds a frame that is not a production suffix")
				}
				ss.Configs[j] = ConfigSnapshot{Alt: int32(cfg.alt), Node: number(cfg.stack), Visited: visitedMembers(cfg.visited)}
			}
		}
		edges := *e.st.edges.Load()
		if len(edges) > 0 {
			terms := make([]int32, 0, len(edges))
			for t := range edges {
				terms = append(terms, int32(t))
			}
			sort.Slice(terms, func(a, b int) bool { return terms[a] < terms[b] })
			ss.EdgeTerms = terms
			ss.EdgeStates = make([]int32, len(terms))
			for k, t := range terms {
				target := edges[grammar.TermID(t)]
				ti, ok := index[target]
				if !ok {
					return CacheSnapshot{}, fmt.Errorf("prediction: cache export: edge target not interned")
				}
				ss.EdgeStates[k] = ti
			}
		}
		snap.States[i] = ss
	}

	starts := *gen.starts.Load()
	if len(starts) > 0 {
		snap.Starts = make([]StartSnapshot, 0, len(starts))
		for nt, st := range starts {
			si, ok := index[st]
			if !ok {
				return CacheSnapshot{}, fmt.Errorf("prediction: cache export: start state not interned")
			}
			snap.Starts = append(snap.Starts, StartSnapshot{NT: nt, State: si})
		}
		sort.Slice(snap.Starts, func(a, b int) bool { return snap.Starts[a].NT < snap.Starts[b].NT })
	}
	return snap, nil
}

func visitedMembers(v machine.NTSet) []int32 {
	members := v.Members()
	if len(members) == 0 {
		return nil
	}
	out := make([]int32, len(members))
	for i, id := range members {
		out[i] = int32(id)
	}
	return out
}

// Import replaces the cache's generation with one rebuilt from snap. Every
// reference is bounds-checked against the compiled grammar — Import is the
// trust boundary for deserialized caches, so malformed snapshots yield an
// error and leave the cache untouched.
//
// The node table is rebuilt in one pass into a single allocation: each
// node may only sit on an earlier one (forward and self references are
// rejected, so the stacks are finite), and no two nodes may have the same
// frame over the same node below. State keys, uniqueAlt, and haltedAlts
// are recomputed from the rebuilt configs, never read from the snapshot,
// so an imported state has exactly the identity it would have been
// interned under natively and later warm-up seamlessly extends the
// imported DFA.
func (c *Cache) Import(cg *grammar.Compiled, snap CacheSnapshot) error {
	gen := newGen()
	nodes, err := importNodes(cg, &gen.nodes, snap.Nodes)
	if err != nil {
		return err
	}
	n := len(snap.States)
	sts := make([]*dfaState, n)
	var key []byte
	for i, ss := range snap.States {
		cfgs, err := importConfigs(cg, nodes, ss.Configs)
		if err != nil {
			return fmt.Errorf("state %d: %w", i, err)
		}
		key = stateKey(key[:0], ss.Anomalous, keysOf(cfgs))
		if _, dup := gen.states[string(key)]; dup {
			return fmt.Errorf("prediction: cache snapshot: state %d duplicates an earlier state", i)
		}
		alts, halted := altsOf(cfgs)
		st := newDFAState(cfgs, alts, halted, ss.Anomalous)
		gen.states[string(key)] = st
		sts[i] = st
	}
	gen.nStates.Store(int64(n))
	for i, ss := range snap.States {
		if len(ss.EdgeTerms) != len(ss.EdgeStates) {
			return fmt.Errorf("prediction: cache snapshot: state %d has %d edge terms but %d targets", i, len(ss.EdgeTerms), len(ss.EdgeStates))
		}
		if len(ss.EdgeTerms) == 0 {
			continue
		}
		m := make(map[grammar.TermID]*dfaState, len(ss.EdgeTerms))
		for k, t := range ss.EdgeTerms {
			// NoTerm is a legitimate edge key: a token the grammar does not
			// mention drives a move to the dead state, and that edge is
			// cached like any other.
			if (t < 0 && grammar.TermID(t) != grammar.NoTerm) || int(t) >= cg.NumTerms() {
				return fmt.Errorf("prediction: cache snapshot: state %d edge terminal %d out of range", i, t)
			}
			si := ss.EdgeStates[k]
			if si < 0 || int(si) >= n {
				return fmt.Errorf("prediction: cache snapshot: state %d edge target %d out of range", i, si)
			}
			if _, dup := m[grammar.TermID(t)]; dup {
				return fmt.Errorf("prediction: cache snapshot: state %d has duplicate edge on terminal %d", i, t)
			}
			m[grammar.TermID(t)] = sts[si]
		}
		sts[i].installEdges(m)
	}
	if len(snap.Starts) > 0 {
		starts := make(map[grammar.NTID]*dfaState, len(snap.Starts))
		for _, se := range snap.Starts {
			if se.NT < 0 || int(se.NT) >= cg.NumNTs() {
				return fmt.Errorf("prediction: cache snapshot: start nonterminal %d out of range", se.NT)
			}
			if se.State < 0 || int(se.State) >= n {
				return fmt.Errorf("prediction: cache snapshot: start state %d out of range", se.State)
			}
			if _, dup := starts[se.NT]; dup {
				return fmt.Errorf("prediction: cache snapshot: duplicate start for nonterminal %d", se.NT)
			}
			starts[se.NT] = sts[se.State]
		}
		gen.installStarts(starts)
	}
	c.gen.Store(gen)
	return nil
}

// importNodes rebuilds the node table t from snaps and returns the nodes
// by snapshot index.
func importNodes(cg *grammar.Compiled, t *nodeTable, snaps []NodeSnapshot) ([]node, error) {
	if len(snaps) == 0 {
		return nil, nil
	}
	pos := newPositions(cg)
	nProds := len(cg.Grammar().Prods)
	nodes := make([]node, len(snaps))
	t.index = make(map[uint64]*node, len(snaps))
	for i, ns := range snaps {
		var below *node
		switch {
		case ns.Below >= int32(i):
			return nil, fmt.Errorf("prediction: cache snapshot: node %d sits on node %d, not an earlier one", i, ns.Below)
		case ns.Below >= 0:
			below = &nodes[ns.Below]
		case ns.Below != -1:
			return nil, fmt.Errorf("prediction: cache snapshot: node %d: below %d out of range", i, ns.Below)
		}
		f := machine.SuffixFrame{Lhs: ns.Lhs}
		var p int32
		if ns.Prod >= 0 {
			if int(ns.Prod) >= nProds {
				return nil, fmt.Errorf("prediction: cache snapshot: node %d: production %d out of range", i, ns.Prod)
			}
			rhs := cg.Rhs(int(ns.Prod))
			if ns.Dot < 0 || int(ns.Dot) >= len(rhs) {
				return nil, fmt.Errorf("prediction: cache snapshot: node %d: dot %d out of range for production %d", i, ns.Dot, ns.Prod)
			}
			if cg.Lhs(int(ns.Prod)) != ns.Lhs {
				return nil, fmt.Errorf("prediction: cache snapshot: node %d: lhs %d does not own production %d", i, ns.Lhs, ns.Prod)
			}
			// Rest is the production's own backing array, exactly as
			// closure builds it.
			f.Rest = rhs[ns.Dot:]
			p = pos.of(ns.Lhs, int(ns.Prod), int(ns.Dot))
		} else if ns.Lhs < 0 || int(ns.Lhs) >= cg.NumNTs() {
			return nil, fmt.Errorf("prediction: cache snapshot: node %d: nonterminal %d out of range", i, ns.Lhs)
		} else {
			p = -int32(ns.Lhs) - 1
		}
		k := nodeKey(p, idOf(below))
		if _, dup := t.index[k]; dup {
			return nil, fmt.Errorf("prediction: cache snapshot: node %d duplicates an earlier node", i)
		}
		nodes[i] = node{f: f, below: below, pos: p, id: int32(i + 1)}
		t.index[k] = &nodes[i]
	}
	t.n = int32(len(nodes))
	return nodes, nil
}

// importConfigs rebuilds one state's configs over the imported nodes, in
// the (alt, node id) order interning keeps them in.
func importConfigs(cg *grammar.Compiled, nodes []node, snaps []ConfigSnapshot) ([]config, error) {
	if len(snaps) == 0 {
		return nil, nil
	}
	nProds := len(cg.Grammar().Prods)
	out := make([]config, 0, len(snaps))
	var ids []grammar.NTID // scratch; NTSetFromMembers does not retain it
	for ci, cs := range snaps {
		if cs.Alt < 0 || int(cs.Alt) >= nProds {
			return nil, fmt.Errorf("config %d: alt %d out of range", ci, cs.Alt)
		}
		var stack *node
		switch {
		case cs.Node >= 0 && int(cs.Node) < len(nodes):
			stack = &nodes[cs.Node]
		case cs.Node != -1:
			return nil, fmt.Errorf("config %d: node %d out of range", ci, cs.Node)
		}
		ids = ids[:0]
		for _, id := range cs.Visited {
			if id < 0 || int(id) >= cg.NumNTs() {
				return nil, fmt.Errorf("config %d: visited nonterminal %d out of range", ci, id)
			}
			ids = append(ids, grammar.NTID(id))
		}
		visited, ok := machine.NTSetFromMembers(ids)
		if !ok {
			return nil, fmt.Errorf("config %d: visited members not strictly ascending", ci)
		}
		out = append(out, config{alt: int(cs.Alt), stack: stack, visited: visited})
	}
	slices.SortFunc(out, func(a, b config) int {
		return cmp.Compare(configKey(a.alt, a.stack), configKey(b.alt, b.stack))
	})
	for i := 1; i < len(out); i++ {
		if configKey(out[i-1].alt, out[i-1].stack) == configKey(out[i].alt, out[i].stack) {
			return nil, fmt.Errorf("config %d: duplicate (alt, node) pair", i)
		}
	}
	return out, nil
}

// keysOf returns the keys of configs over table nodes, in their order.
func keysOf(cfgs []config) []keyed {
	ks := make([]keyed, len(cfgs))
	for i, cfg := range cfgs {
		ks[i] = keyed{k: configKey(cfg.alt, cfg.stack), i: int32(i)}
	}
	return ks
}

// altsOf is the allocation-free-path-independent form of engine.altSummary
// for the import path: distinct alts and halted alts over cfgs, ascending,
// in freshly allocated slices the cache may retain.
func altsOf(cfgs []config) (alts, haltedAlts []int) {
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
	return alts, haltedAlts
}
