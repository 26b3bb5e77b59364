package prediction

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"costar/internal/grammar"
)

// dfaState is one state of the SLL prediction DFA: a canonical set of
// stable subparser configurations plus its precomputed resolution facts and
// outgoing edges (∆ of Figure 1, with states q as subparser sets).
//
// Concurrency: every field except edges is immutable after interning, and
// so are the table nodes the configs point at. edges grows copy-on-write —
// readers follow transitions with a single atomic load (edge), writers
// serialize on mu and publish a fresh map (setEdge) — so the warm-cache
// hit path is lock-free. Edges are keyed by dense terminal IDs and state
// identity is a string of (alt, node id) pairs; neither hashes a symbol
// name.
type dfaState struct {
	configs    []config // stable, sorted by (alt, node id), halted included
	haltedAlts []int    // alts with a completed simulated parse
	uniqueAlt  int      // converged alternative, or -1
	anomalous  bool     // construction involved a subparser kill

	mu    sync.Mutex // serializes edge additions; readers never take it
	edges atomic.Pointer[map[grammar.TermID]*dfaState]
}

// edge returns the successor of st over terminal t, lock-free.
func (st *dfaState) edge(t grammar.TermID) (*dfaState, bool) {
	next, ok := (*st.edges.Load())[t]
	return next, ok
}

// setEdge publishes t→next and returns the edge's winner. Under a race the
// first writer wins; because successors are interned by content, racing
// writers hold the identical *dfaState anyway, so either answer is correct
// and the loser simply discards its redundant build.
func (st *dfaState) setEdge(t grammar.TermID, next *dfaState) *dfaState {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := st.edges.Load()
	if exist, ok := (*m)[t]; ok {
		return exist
	}
	nm := make(map[grammar.TermID]*dfaState, len(*m)+1)
	for k, v := range *m {
		nm[k] = v
	}
	nm[t] = next
	st.edges.Store(&nm)
	return next
}

// installEdges publishes a complete edge map on a state not yet visible to
// any reader — the snapshot-import bulk path, where building edges one
// setEdge at a time would copy the map once per edge. Once a state is
// shared, edges grow only through setEdge's copy-on-write protocol.
func (st *dfaState) installEdges(m map[grammar.TermID]*dfaState) {
	st.edges.Store(&m)
}

// cacheGen is one generation of cached DFA states; Reset swaps the whole
// generation so in-flight readers keep a consistent snapshot. A generation
// owns the node table its states' stacks live in, so states and nodes are
// dropped together.
type cacheGen struct {
	mu      sync.Mutex // serializes starts updates and every intern
	starts  atomic.Pointer[map[grammar.NTID]*dfaState]
	states  map[string]*dfaState // state key → state; guarded by mu
	nodes   nodeTable            // guarded by mu
	nStates atomic.Int64         // len(states), readable without mu
}

func newGen() *cacheGen {
	g := &cacheGen{states: make(map[string]*dfaState)}
	m := make(map[grammar.NTID]*dfaState)
	g.starts.Store(&m)
	return g
}

// installStarts publishes a complete start map on a generation not yet
// visible to any reader (snapshot import); shared generations grow starts
// only through start's copy-on-write path.
func (g *cacheGen) installStarts(m map[grammar.NTID]*dfaState) {
	g.starts.Store(&m)
}

// Cache is the persistent SLL DFA: start states per decision nonterminal
// and interned states by key. A Cache belongs to one grammar; reuse across
// inputs is safe and is how the "warmed cache" configurations of Figure 11
// and the session API work.
//
// A Cache is safe for concurrent use by any number of goroutines. The
// design exploits ALL(*)'s cache monotonicity: states are identified by
// content (interning is idempotent), so goroutines racing to extend the
// DFA converge on identical states and losers discard their builds.
// Lookups on the warm path (start-state fetch, edge following) are
// lock-free; only cache growth takes short mutexes.
type Cache struct {
	gen atomic.Pointer[cacheGen]
}

// NewCache returns an empty DFA cache.
func NewCache() *Cache {
	c := &Cache{}
	c.gen.Store(newGen())
	return c
}

// start returns the memoized start state for nt, building it on first use.
// Racing builders both run build; interning makes their results the
// identical state, so whichever publishes first wins without divergence.
// A nil build result (the builder was halted by its parse's governor) is
// returned as-is and never published: the next parse rebuilds cleanly.
func (g *cacheGen) start(nt grammar.NTID, build func() *dfaState) *dfaState {
	if st, ok := (*g.starts.Load())[nt]; ok {
		return st
	}
	st := build()
	if st == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m := g.starts.Load()
	if exist, ok := (*m)[nt]; ok {
		return exist
	}
	nm := make(map[grammar.NTID]*dfaState, len(*m)+1)
	for k, v := range *m {
		nm[k] = v
	}
	nm[nt] = st
	g.starts.Store(&nm)
	return st
}

// intern turns a closure result into a DFA state of generation g, reusing
// the existing state with the same configs when there is one.
//
// res.stable aliases the calling engine's scratch, so its stacks are first
// translated into g's node table (nodeTable.canon): identical stacks
// become one table node, and the configs of every state share their tails
// instead of each owning a private chain. A state's identity is then its
// anomaly flag plus its sorted (alt, node id) pairs — a key of eight bytes
// per config, with no walk over stack frames. Content-equal configs map to
// the same pair, so a state holds each config once.
//
// Everything runs under g.mu, on the miss path only: the table and the
// state map are written nowhere else, and the warm path (start, edge)
// reads neither. Racing interns of the same content serialize here and
// all get the first one's state.
func (g *cacheGen) intern(e *engine, res closureResult) *dfaState {
	anomalous := res.anomaly != anomalyNone
	if len(e.scr.memo) < int(e.scr.nNodes) {
		e.scr.memo = append(e.scr.memo, make([]*node, int(e.scr.nNodes)-len(e.scr.memo))...)
	}
	e.scr.memoUsed = int(e.scr.nNodes)

	g.mu.Lock()
	defer g.mu.Unlock()
	ks := e.scr.keyed[:0]
	for i, cfg := range res.stable {
		ks = append(ks, keyed{k: configKey(cfg.alt, g.nodes.canon(cfg.stack, e.scr.memo)), i: int32(i)})
	}
	slices.SortFunc(ks, compareKeyed)
	ks = slices.CompactFunc(ks, func(a, b keyed) bool { return a.k == b.k })
	e.scr.keyed = ks[:0]
	key := stateKey(e.scr.key[:0], anomalous, ks)
	e.scr.key = key[:0]
	if st, ok := g.states[string(key)]; ok {
		return st
	}
	// The state keeps its own configs, in key order. Their stacks were
	// translated above; canon answers from the memo.
	own := make([]config, len(ks))
	for j, kc := range ks {
		cfg := res.stable[kc.i]
		own[j] = config{alt: cfg.alt, stack: g.nodes.canon(cfg.stack, e.scr.memo), visited: cfg.visited.Clone()}
	}
	alts, halted := e.altSummary(own)
	st := newDFAState(own, alts, append([]int(nil), halted...), anomalous)
	g.states[string(key)] = st
	g.nStates.Add(1)
	return st
}

// keyed is a config's identity, configKey, with the config's index in the
// list it came from. Sorting keyed values orders configs without moving
// them.
type keyed struct {
	k uint64
	i int32
}

// configKey packs (alt, node id) into one integer whose order — alt, then
// node id — is the order states keep their configs in. stack must be a
// table node or nil.
func configKey(alt int, stack *node) uint64 {
	return uint64(uint32(alt))<<32 | uint64(uint32(idOf(stack)))
}

func compareKeyed(a, b keyed) int { return cmp.Compare(a.k, b.k) }

// stateKey appends a state's identity to b: the anomaly byte, then each
// config's (alt, node id) as two little-endian int32s. ks must be sorted
// and distinct.
func stateKey(b []byte, anomalous bool, ks []keyed) []byte {
	if anomalous {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, kc := range ks {
		b = appendInt32(b, int32(kc.k>>32))
		b = appendInt32(b, int32(uint32(kc.k)))
	}
	return b
}

// newDFAState assembles a state from cache-owned configs and its alt
// summary (alts drive uniqueAlt; haltedAlts is retained). cfgs and
// haltedAlts must already be owned by the cache: configs over table nodes
// with cloned visited sets.
func newDFAState(cfgs []config, alts, haltedAlts []int, anomalous bool) *dfaState {
	st := &dfaState{
		configs:    cfgs,
		haltedAlts: haltedAlts,
		uniqueAlt:  -1,
		anomalous:  anomalous,
	}
	empty := make(map[grammar.TermID]*dfaState)
	st.edges.Store(&empty)
	if len(alts) == 1 && !anomalous {
		st.uniqueAlt = alts[0]
	}
	return st
}

// Size returns (#start states, #interned states); benchmarks report it as
// the cache footprint. Safe to call while other goroutines parse.
func (c *Cache) Size() (starts, states int) {
	g := c.gen.Load()
	return len(*g.starts.Load()), int(g.nStates.Load())
}

// Reset discards all cached states and their node table (the "cold cache"
// configuration of the Figure 11 experiment). Safe concurrently with
// parses: in-flight predictions keep their consistent pre-Reset snapshot
// and merely stop contributing growth to the new generation.
func (c *Cache) Reset() {
	c.gen.Store(newGen())
}
