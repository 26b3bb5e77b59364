package prediction

// Graph-structured stack for subparser configurations: the same idea as
// the imperative baseline's GSS (internal/allstar/gss.go), adapted to the
// verified engine's persistent stacks. A stack node is a suffix frame plus
// a pointer to the node below; each node also carries a dense frame
// position and an id, so a configuration's identity is a pair of ints.
//
// Nodes live in one of two places:
//
//   - Decision scratch (negative ids). Closure and move build stacks here,
//     bump-allocated from the engine's arena and recycled when the next
//     decision begins. Scratch nodes are not hash-consed: closure dedup
//     keys on (alt, frame position, id of the node below).
//   - A cache generation's node table (positive ids). intern (cache.go)
//     translates the stable configs of a closure result into the table,
//     which hash-conses nodes by (frame position, id of the node below), so
//     identical stacks are one node and every DFA state's configs share
//     their tails. The table is append-only and owned by the generation:
//     Reset drops it together with the states that reference it.

import (
	"math"

	"costar/internal/arena"
	"costar/internal/grammar"
	"costar/internal/keyset"
	"costar/internal/machine"
)

// node is one stack node. Only scratch nodes are ever written after
// creation (an LL node materializes its real-stack tail, see engine.below);
// table nodes are immutable once published.
type node struct {
	f     machine.SuffixFrame
	below *node
	// real is the machine's own suffix stack below this node, not yet
	// materialized as nodes — set only on LL scratch nodes, whose bottom
	// continues into the parse's real stack.
	real *machine.SuffixStack
	pos  int32 // frame position (positions.of), or posOpaque
	id   int32 // > 0: table node; < 0: scratch node; never 0
}

// Frame positions. A non-empty frame whose Rest is Rhs(p)[d:] has position
// base[p]+d. An empty frame at nonterminal X has position -(X+1): every
// production of X ends in the same frame. Frames copied from the machine's
// real stack in LL mode are opaque: they need not be production suffixes
// (the bottom frame holds the start symbol), are never interned, and take
// part in closure dedup by node identity.
const (
	posOpaque int32 = math.MinInt32
	posHalted int32 = math.MinInt32 + 1 // dedup position of a halted config
)

// positions numbers the grammar positions of one compiled grammar.
type positions struct {
	base []int32 // production → position of its first symbol
}

func newPositions(c *grammar.Compiled) positions {
	n := len(c.Grammar().Prods)
	p := positions{base: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		p.base[i+1] = p.base[i] + int32(len(c.Rhs(i)))
	}
	return p
}

// of returns the position of the frame (lhs, Rhs(prod)[dot:]).
func (p positions) of(lhs grammar.NTID, prod, dot int) int32 {
	if p.base[prod]+int32(dot) == p.base[prod+1] {
		return -int32(lhs) - 1
	}
	return p.base[prod] + int32(dot)
}

// advance returns the position of frame f (at position pos) once its head
// symbol is consumed or called.
func advance(f machine.SuffixFrame, pos int32) int32 {
	switch {
	case pos == posOpaque:
		return posOpaque
	case len(f.Rest) == 1:
		return -int32(f.Lhs) - 1
	}
	return pos + 1
}

// prodDot inverts of for a non-empty position: the production and dot.
func (p positions) prodDot(pos int32) (prod, dot int) {
	lo, hi := 0, len(p.base)-1 // base[lo] <= pos < base[hi]
	//costar:allow governortick -- binary search: log2 of the production count, fixed by the grammar
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.base[mid] <= pos {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, int(pos - p.base[lo])
}

// idOf returns n's id, with 0 for the empty stack.
func idOf(n *node) int32 {
	if n == nil {
		return 0
	}
	return n.id
}

// nodeKey packs a table node's identity: its frame position and the id of
// the node below.
func nodeKey(pos, below int32) uint64 {
	return uint64(uint32(pos))<<32 | uint64(uint32(below))
}

// nodeTable is a cache generation's hash-consed node table. It is written
// only under the generation's mutex; readers reach its nodes through the
// configs of published states and never consult the index.
type nodeTable struct {
	index map[uint64]*node
	slab  arena.Arena[node] // GC-scoped: dropped with the generation
	n     int32             // nodes so far; ids are 1..n
}

// get returns the table node for frame f at position pos over below (a
// table node or nil), creating it on first use.
func (t *nodeTable) get(f machine.SuffixFrame, pos int32, below *node) *node {
	k := nodeKey(pos, idOf(below))
	if n, ok := t.index[k]; ok {
		return n
	}
	if t.index == nil {
		t.index = make(map[uint64]*node)
	}
	t.n++
	n := t.slab.New(node{f: f, below: below, pos: pos, id: t.n})
	t.index[k] = n
	return n
}

// canon returns the table node equal to scratch-or-table stack n. memo
// maps scratch ids to their translation for the current decision, so each
// distinct scratch node is looked up once however many configs share it.
func (t *nodeTable) canon(n *node, memo []*node) *node {
	if n == nil || n.id > 0 {
		return n
	}
	i := -n.id - 1
	if m := memo[i]; m != nil {
		return m
	}
	m := t.get(n.f, n.pos, t.canon(n.below, memo))
	memo[i] = m
	return m
}

// dedupKey identifies a config for closure-time merging: the alternative,
// the top frame's position, and the id of the node below — so two configs
// merge when their tops are the same grammar position over the same stack
// node. An opaque top has no position and keys on its own id instead. The
// visited set is deliberately excluded: within a round every config starts
// with an empty visited set (move clears it), so two configs with equal
// (alt, stack) have futures that differ at most in when a left-recursion
// kill fires — and any such kill still witnesses a genuine nullable loop.
// Merging is therefore sound, and it is what keeps closure polynomial on
// deep expression grammars.
type dedupKey struct {
	alt, pos, below int32
}

func keyOf(c config) dedupKey {
	switch {
	case c.stack == nil:
		return dedupKey{alt: int32(c.alt), pos: posHalted}
	case c.stack.pos == posOpaque:
		return dedupKey{alt: int32(c.alt), pos: posOpaque, below: c.stack.id}
	}
	return dedupKey{alt: int32(c.alt), pos: c.stack.pos, below: idOf(c.stack.below)}
}

// Hash implements keyset.Key.
func (k dedupKey) Hash() uint64 {
	return keyset.Mix(uint64(uint32(k.alt))<<32|uint64(uint32(k.pos))) ^ keyset.Mix(uint64(uint32(k.below)))
}
