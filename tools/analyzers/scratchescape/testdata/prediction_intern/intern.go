// Fixture: the intern path. The SLL DFA cache interns decision scratch
// into dfaStates; newDFAState retains parameters 0 (cfgs) and 2
// (haltedAlts), so configs must reach it holding stacks translated into
// the generation's node table (nodeTable.canon) in a slice of their own,
// and dfaState field stores must hold such translations too. Matching is
// by declared package name, so this replica is held to the same spec as
// the real internal/prediction.
package prediction

// node is a stack node: scratch-built or table-owned.
type node struct{ below *node }

type config struct {
	alt   int
	stack *node
}

// scratch is the decision scratch: every field aliases pooled memory.
type scratch struct {
	stable []config
	halted []int
}

type engine struct{ scr *scratch }

// nodeTable is the generation's hash-consed node table.
type nodeTable struct{ nodes []node }

// canon is the recognized translation: the table node equal to n.
func (t *nodeTable) canon(n *node, memo []*node) *node {
	_ = memo
	t.nodes = append(t.nodes, node{})
	return &t.nodes[len(t.nodes)-1]
}

// dfaState is cache-retained: it outlives every parse.
type dfaState struct {
	configs    []config
	haltedAlts []int
}

// newDFAState retains cfgs and haltedAlts (params 0 and 2) in the state
// it returns; alts is only read.
func newDFAState(cfgs []config, alts []int, haltedAlts []int, anomalous bool) *dfaState {
	_, _ = alts, anomalous
	return &dfaState{configs: cfgs, haltedAlts: haltedAlts}
}

// internRaw hands scratch-aliasing slices straight to the cache: both
// retained arguments are flagged.
func internRaw(e *engine, alts []int) *dfaState {
	return newDFAState(
		e.scr.stable, // want "retained by the DFA cache"
		alts,
		e.scr.halted, // want "retained by the DFA cache"
		false)
}

// internCanon is the sanctioned path: a fresh config slice whose stacks
// come from canon, and an element-copying append for the halted
// alternatives (int elements cannot alias pooled memory, so the fresh
// backing array is a deep copy).
func internCanon(e *engine, t *nodeTable, alts []int) *dfaState {
	own := make([]config, len(e.scr.stable))
	for i, c := range e.scr.stable {
		own[i] = config{alt: c.alt, stack: t.canon(c.stack, nil)}
	}
	return newDFAState(own, alts, append([]int(nil), e.scr.halted...), false)
}

// internAliased keeps a scratch stack pointer: flagged.
func internAliased(e *engine, alts []int) *dfaState {
	own := make([]config, len(e.scr.stable))
	for i, c := range e.scr.stable {
		own[i] = config{alt: c.alt, stack: c.stack}
	}
	return newDFAState(own, alts, nil, false) // want "retained by the DFA cache"
}

// storeRaw writes scratch into an interned state after construction.
func storeRaw(e *engine, st *dfaState) {
	st.configs = e.scr.stable // want "cache-retained"
}

// storeCanon stores configs whose stacks were translated into the table;
// accepted.
func storeCanon(e *engine, t *nodeTable, st *dfaState) {
	own := make([]config, len(e.scr.stable))
	for i, c := range e.scr.stable {
		own[i] = config{alt: c.alt, stack: t.canon(c.stack, nil)}
	}
	st.configs = own
}

// readBack reads cache-owned data; nothing escapes.
func readBack(st *dfaState) int {
	return len(st.configs) + len(st.haltedAlts)
}
