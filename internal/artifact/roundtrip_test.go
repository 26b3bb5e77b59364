package artifact_test

// Round-trip properties of the ahead-of-time artifact: for every bundled
// language (and a population of randomized grammars), build a session, warm
// it, export, encode, decode, realize — and at every stage the result must
// reproduce the original exactly: identical bytes on re-encode, a DeepEqual
// Artifact on decode, identical fingerprints and DFA snapshots after a
// second export from the realized session (export∘import is a fixed point).

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"costar/internal/artifact"
	"costar/internal/bench"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/parser"
	"costar/internal/prediction"
)

// warmSession builds a certified session for l and warms its DFA on a small
// corpus.
func warmSession(t testing.TB, l bench.Lang) *parser.Parser {
	t.Helper()
	g := l.Grammar
	if g.Compiled().Certificate() == nil {
		if _, _, err := grammarlint.Certify(g); err != nil {
			t.Fatalf("%s: certify: %v", l.Name, err)
		}
	}
	p := parser.MustNew(g, parser.Options{})
	files, err := bench.Corpus(l, bench.Config{Files: 4, MinTokens: 100, MaxTokens: 800, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if res := p.Parse(f.Tokens); res.Kind != machine.Unique {
			t.Fatalf("%s: warm corpus seed %d: %v", l.Name, f.Seed, res.Kind)
		}
	}
	return p
}

// export snapshots p into an artifact.
func export(t testing.TB, p *parser.Parser, name string) *artifact.Artifact {
	t.Helper()
	a, err := p.ExportArtifact(name, "")
	if err != nil {
		t.Fatalf("%s: export: %v", name, err)
	}
	return a
}

// TestRoundTripBundledLanguages: encode/decode must reproduce the artifact
// value exactly, and a session realized from the artifact must re-export an
// identical artifact (same fingerprint, same tables, same DFA snapshot) —
// so artifacts are a fixed point, not a lossy approximation.
func TestRoundTripBundledLanguages(t *testing.T) {
	for _, l := range bench.Languages() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			p := warmSession(t, l)
			a := export(t, p, l.Name)
			if a.Cert == nil {
				t.Fatalf("bundled grammar exported without certificate")
			}

			data := artifact.Encode(a)
			back, err := artifact.Decode(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(a, back) {
				t.Fatalf("decode(encode(a)) differs from a")
			}
			checkCacheIdentity(t, a.Cache)
			if again := artifact.Encode(back); !bytes.Equal(data, again) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(data), len(again))
			}

			p2, err := parser.NewFromArtifact(back, parser.Options{})
			if err != nil {
				t.Fatalf("NewFromArtifact: %v", err)
			}
			if !p2.Certified() {
				t.Fatalf("artifact session lost certified mode")
			}
			a2 := export(t, p2, l.Name)
			if !reflect.DeepEqual(a, a2) {
				t.Fatalf("export after import differs from original export")
			}
		})
	}
}

// TestRoundTripColdSession: a freshly built session (empty DFA cache)
// round-trips too — the artifact then carries tables, analysis, and the
// certificate only.
func TestRoundTripColdSession(t *testing.T) {
	l := bench.Languages()[0]
	p := parser.MustNew(l.Grammar, parser.Options{})
	a := export(t, p, l.Name)
	if len(a.Cache.States) != 0 {
		t.Fatalf("cold session exported %d DFA states", len(a.Cache.States))
	}
	back, err := artifact.Decode(artifact.Encode(a))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatal("cold artifact does not round-trip")
	}
	if _, err := parser.NewFromArtifact(back, parser.Options{}); err != nil {
		t.Fatal(err)
	}
}

// randomGrammar builds a random (valid) grammar over a handful of
// terminals and nonterminals; used to round-trip grammars with shapes the
// bundled languages do not exercise (empty RHS runs, unreachable rules,
// heavy alternation).
func randomGrammar(rng *rand.Rand) *grammar.Grammar {
	nts := []string{"S", "A", "B", "C", "D"}
	ts := []string{"a", "b", "c", "x", "y"}
	b := grammar.NewBuilder("S")
	for _, nt := range nts[:2+rng.Intn(4)] {
		for i := 0; i < 1+rng.Intn(4); i++ {
			n := rng.Intn(5)
			rhs := make([]grammar.Symbol, 0, n)
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					rhs = append(rhs, grammar.NT(nts[rng.Intn(len(nts))]))
				} else {
					rhs = append(rhs, grammar.T(ts[rng.Intn(len(ts))]))
				}
			}
			b.Add(nt, rhs...)
		}
	}
	return b.Grammar()
}

// TestRoundTripRandomGrammars: randomized grammars — warmed by parsing
// random words (accepted or rejected, both drive the SLL DFA) — must
// round-trip bit-exactly through encode/decode and re-export.
func TestRoundTripRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	runs := 0
	for runs < 60 {
		g := randomGrammar(rng)
		if g.Validate() != nil {
			continue
		}
		runs++
		p := parser.MustNew(g, parser.Options{})
		for w := 0; w < 10; w++ {
			word := make([]grammar.Token, rng.Intn(12))
			for i := range word {
				n := []string{"a", "b", "c", "x", "y"}[rng.Intn(5)]
				word[i] = grammar.Tok(n, n)
			}
			p.Parse(word)
		}
		a := export(t, p, "random")
		checkCacheIdentity(t, a.Cache)
		data := artifact.Encode(a)
		back, err := artifact.Decode(data)
		if err != nil {
			t.Fatalf("run %d: decode: %v", runs, err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("run %d: decode(encode(a)) differs", runs)
		}
		p2, err := parser.NewFromArtifact(back, parser.Options{})
		if err != nil {
			t.Fatalf("run %d: realize: %v", runs, err)
		}
		a2 := export(t, p2, "random")
		if !reflect.DeepEqual(a, a2) {
			t.Fatalf("run %d: export after import differs", runs)
		}
	}
}

// checkCacheIdentity asserts the snapshot's node table and states are each
// free of duplicates: the table is stored bottom-up (every node rests on an
// earlier one) and holds each (frame, node below) once, and no two states
// have the same anomaly flag and configs — node-id state keys and content
// pick out the same states.
func checkCacheIdentity(t testing.TB, snap prediction.CacheSnapshot) {
	t.Helper()
	nodes := make(map[prediction.NodeSnapshot]bool, len(snap.Nodes))
	for i, n := range snap.Nodes {
		if n.Below >= int32(i) {
			t.Fatalf("node %d rests on node %d, not an earlier one", i, n.Below)
		}
		if nodes[n] {
			t.Fatalf("node %d duplicates an earlier node", i)
		}
		nodes[n] = true
	}
	states := make(map[string]bool, len(snap.States))
	for i, st := range snap.States {
		key := fmt.Sprint(st.Anomalous, st.Configs)
		if states[key] {
			t.Fatalf("state %d duplicates an earlier state's content", i)
		}
		states[key] = true
	}
}

// extendConverges warms p on first, exports, realizes a second session from
// the artifact, parses rest on both, and requires identical final exports:
// a DFA extended after an import converges on the states the original
// session reaches.
func extendConverges(t *testing.T, p *parser.Parser, name string, rest [][]grammar.Token) {
	t.Helper()
	a := export(t, p, name)
	checkCacheIdentity(t, a.Cache)
	back, err := artifact.Decode(artifact.Encode(a))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := parser.NewFromArtifact(back, parser.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rest {
		r1, r2 := p.Parse(w), p2.Parse(w)
		if r1.Kind != r2.Kind {
			t.Fatalf("%s: imported session answered %v, original %v", name, r2.Kind, r1.Kind)
		}
	}
	got, want := export(t, p2, name), export(t, p, name)
	checkCacheIdentity(t, want.Cache)
	if !reflect.DeepEqual(got.Cache, want.Cache) {
		t.Fatalf("%s: extended import has %d states / %d nodes, original %d / %d",
			name, len(got.Cache.States), len(got.Cache.Nodes), len(want.Cache.States), len(want.Cache.Nodes))
	}
}

// TestExtendAfterImportBundledLanguages: warm, export, import, extend on
// more documents — the imported session must converge on the original's
// DFA for every bundled language.
func TestExtendAfterImportBundledLanguages(t *testing.T) {
	for _, l := range bench.Languages() {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			p := warmSession(t, l)
			more, err := bench.Corpus(l, bench.Config{Files: 3, MinTokens: 900, MaxTokens: 1500, Trials: 1})
			if err != nil {
				t.Fatal(err)
			}
			var rest [][]grammar.Token
			for _, f := range more {
				rest = append(rest, f.Tokens)
			}
			extendConverges(t, p, l.Name, rest)
		})
	}
}

// TestExtendAfterImportRandomGrammars is the same property over the
// randomized grammars of TestRoundTripRandomGrammars, warmed and extended
// with random words (accepted or rejected).
func TestExtendAfterImportRandomGrammars(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	word := func() []grammar.Token {
		w := make([]grammar.Token, rng.Intn(12))
		for i := range w {
			n := []string{"a", "b", "c", "x", "y"}[rng.Intn(5)]
			w[i] = grammar.Tok(n, n)
		}
		return w
	}
	for runs := 0; runs < 60; {
		g := randomGrammar(rng)
		if g.Validate() != nil {
			continue
		}
		runs++
		p := parser.MustNew(g, parser.Options{})
		for w := 0; w < 10; w++ {
			p.Parse(word())
		}
		var rest [][]grammar.Token
		for w := 0; w < 10; w++ {
			rest = append(rest, word())
		}
		extendConverges(t, p, "random", rest)
	}
}
