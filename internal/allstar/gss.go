package allstar

// Graph-structured stack: hash-consed stack nodes so that identical stacks
// share one id and configurations are a pair of ints. Node 0 is the
// distinguished empty stack; nodes are never freed (the structure lives as
// long as the predictor, which is what lets the DFA reference them).
//
// Each node is (framePos, parent): framePos is a grammar position
// pos(prod, dot) — the continuation to resume when this frame is popped —
// and parent is the node below.

import "costar/internal/keyset"

const (
	gssEmpty int32 = 0 // empty stack (SLL: overapproximated context)
)

type gssKey struct {
	frame  int32
	parent int32
}

type gss struct {
	frames  []int32 // frames[id]
	parents []int32
	index   map[gssKey]int32
}

func newGSS() *gss {
	g := &gss{index: make(map[gssKey]int32)}
	// id 0: the empty stack sentinel.
	g.frames = append(g.frames, -1)
	g.parents = append(g.parents, -1)
	return g
}

// push returns the id of (frame, parent), creating it if new.
func (g *gss) push(frame, parent int32) int32 {
	key := gssKey{frame, parent}
	if id, ok := g.index[key]; ok {
		return id
	}
	id := int32(len(g.frames))
	g.frames = append(g.frames, frame)
	g.parents = append(g.parents, parent)
	g.index[key] = id
	return id
}

func (g *gss) frame(id int32) int32  { return g.frames[id] }
func (g *gss) parent(id int32) int32 { return g.parents[id] }

// config is one subparser: the predicted alternative (a production index)
// plus a GSS stack id; halted configs (completed parses) use stack == -1.
type config struct {
	alt   int32
	stack int32
}

// Hash implements keyset.Key for closure dedup.
func (c config) Hash() uint64 { return keyset.Mix(uint64(uint32(c.alt))<<32 | uint64(uint32(c.stack))) }

const haltedStack int32 = -1
