// Package allstar is the performance baseline of the evaluation: an
// imperative ALL(*) engine in the style of ANTLR 4, playing the role the
// Java ANTLR runtime plays in the paper's Figures 10 and 11.
//
// Where the verified-style engine (internal/machine + internal/prediction)
// is purely functional, this one uses every optimization Section 3.5 lists
// as present in ANTLR but absent from CoStar:
//
//   - interned integer symbols and grammar positions (no string
//     comparisons on the hot path — the compareNT cost of Section 6.1);
//   - a hash-consed graph-structured stack (GSS) for subparsers, so
//     configurations are comparable integers and identical stacks merge;
//   - mutable parser and subparser state (no persistent structures);
//   - early ambiguity detection via conflicting configurations (same GSS
//     node, different alternatives) instead of scanning to end of input;
//   - a DFA cache that persists across inputs by default.
//
// Since the verified engine moved onto the compiled grammar, both engines
// read the same grammar.Compiled tables and the same analysis.Targets
// return-target analysis. Its SLL cache now hash-conses stacks too, so
// what remains distinctive here is the GSS as the only stack
// representation, the mutable state (closure dedup reuses one set across
// calls), and early conflict detection. Whatever the verified engine
// gains, this engine must match: a verified engine faster than the
// baseline measures a baseline defect, not the cost of verification.
//
// Results are bit-compatible with the verified engine on unambiguous
// inputs (the differential tests check tree equality), which is what makes
// the Figure 10 slowdown comparison meaningful.
package allstar

import (
	"fmt"

	"costar/internal/analysis"
	"costar/internal/grammar"
)

// igrammar adapts the shared compiled grammar to this engine's packed
// grammar-position encoding: callSites[nt] holds pos(prod, dot+1) for every
// stable return target of nt (the same analysis the verified engine's SLL
// mode uses, converted from (Prod, Dot) pairs to packed ints).
type igrammar struct {
	src   *grammar.Grammar
	c     *grammar.Compiled
	start grammar.NTID

	callSites [][]int32 // by NTID: encoded positions after occurrences
	canFinish []bool    // by NTID: a pop chain can end the parse
}

// pos encodes a grammar position (production, dot) in one int32.
func pos(prod, dot int32) int32 { return prod<<16 | dot }
func posProd(p int32) int32     { return p >> 16 }
func posDot(p int32) int32      { return p & 0xffff }

// intern builds the interned form of g for start symbol start.
func intern(g *grammar.Grammar, start string) (*igrammar, error) {
	c := g.Compiled()
	sid, ok := c.NTIDOf(start)
	if !ok || !c.HasNTID(sid) {
		return nil, fmt.Errorf("allstar: start symbol %q has no productions", start)
	}
	if g.MaxRhsLen() >= 1<<16 {
		return nil, fmt.Errorf("allstar: right-hand side too long")
	}
	for _, p := range g.Prods {
		for _, s := range p.Rhs {
			if s.IsNT() && !g.HasNT(s.Name) {
				return nil, fmt.Errorf("allstar: undefined nonterminal %q", s.Name)
			}
		}
	}
	ig := &igrammar{src: g, c: c, start: sid}
	tg := analysis.NewTargetsFor(g, start)
	n := c.NumNTs()
	ig.callSites = make([][]int32, n)
	ig.canFinish = make([]bool, n)
	for nt := grammar.NTID(0); int(nt) < n; nt++ {
		rts := tg.For(nt)
		cs := make([]int32, len(rts))
		for i, rt := range rts {
			cs[i] = pos(int32(rt.Prod), int32(rt.Dot+1))
		}
		ig.callSites[nt] = cs
		ig.canFinish[nt] = tg.CanFinish(nt)
	}
	return ig, nil
}
