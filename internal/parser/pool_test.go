package parser

// Lifetime tests for the pooled per-parse scratch (parseScratch) and the
// Result-scoped tree arena: parse trees must stay valid for the Result's
// whole life no matter how much the session's pool is churned afterwards,
// pooled reuse must be safe under ParseAll concurrency (run these with
// -race), and aborted parses — panics injected at the token source,
// cancellation mid-parse — must never return a half-mutated scratch to the
// pool.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"costar/internal/faultinject"
	"costar/internal/grammar"
	"costar/internal/languages/jsonlang"
	"costar/internal/machine"
	"costar/internal/source"
	"costar/internal/tree"
)

// jsonWords builds n distinct valid JSON token words of varying size.
func jsonWords(t testing.TB, n int) [][]grammar.Token {
	t.Helper()
	out := make([][]grammar.Token, n)
	for i := range out {
		toks, err := jsonlang.Lang.Tokenize(jsonlang.Generate(int64(i)+1, 200+137*i))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = toks
	}
	return out
}

// TestPooledTreeLifetime parses many words through one session, retaining
// every Result, then churns the pool further and only afterwards checks
// each retained tree — structure, yield, and full grammar validation. If
// pooled reuse ever reclaimed or rewrote a Result-scoped tree node, the
// late validation would see the corruption.
func TestPooledTreeLifetime(t *testing.T) {
	words := jsonWords(t, 12)
	g := jsonlang.Lang.Grammar()
	p := MustNew(g, Options{})
	results := make([]Result, len(words))
	for i, w := range words {
		results[i] = p.Parse(w)
		if results[i].Kind != Unique {
			t.Fatalf("word %d: %v (%s)", i, results[i].Kind, results[i].Reason)
		}
	}
	// Churn: every parse here recycles the same pooled scratch the retained
	// results were built with.
	for i := 0; i < 20; i++ {
		if res := p.Parse(words[i%len(words)]); res.Kind != Unique {
			t.Fatalf("churn parse %d: %v", i, res.Kind)
		}
	}
	fresh := MustNew(g, Options{})
	for i, res := range results {
		want := fresh.Parse(words[i])
		if !res.Tree.Equal(want.Tree) {
			t.Fatalf("word %d: retained tree diverged from a fresh parse after pool churn", i)
		}
		if err := tree.Validate(g, grammar.NT(g.Start), res.Tree, words[i]); err != nil {
			t.Fatalf("word %d: retained tree no longer validates: %v", i, err)
		}
	}
}

// TestPooledReuseConcurrent races pooled scratch through ParseAll: many
// goroutines draw from the session pool at once, repeatedly, and every
// result must match a sequential reference. Run with -race; it also guards
// against two parses ever sharing one scratch.
func TestPooledReuseConcurrent(t *testing.T) {
	words := jsonWords(t, 16)
	p := MustNew(jsonlang.Lang.Grammar(), Options{})
	ref := MustNew(jsonlang.Lang.Grammar(), Options{})
	want := make([]Result, len(words))
	for i, w := range words {
		want[i] = ref.Parse(w)
	}
	for round := 0; round < 4; round++ {
		results := parseWords(p, words, 8)
		for i, res := range results {
			if res.Kind != Unique {
				t.Fatalf("round %d word %d: %v (%s)", round, i, res.Kind, res.Reason)
			}
			if !res.Tree.Equal(want[i].Tree) {
				t.Fatalf("round %d word %d: concurrent pooled parse built a different tree", round, i)
			}
		}
	}
}

// TestAbortedParseDoesNotPoisonPool injects panics and failures at the
// token source mid-parse — which abandon or early-release the pooled
// scratch — and checks that subsequent parses on the same session are
// still correct.
func TestAbortedParseDoesNotPoisonPool(t *testing.T) {
	src := jsonlang.Generate(7, 500)
	toks, err := jsonlang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	p := MustNew(jsonlang.Lang.Grammar(), Options{})
	want := p.Parse(toks)
	if want.Kind != Unique {
		t.Fatalf("baseline: %v", want.Kind)
	}
	c := jsonlang.Lang.Grammar().Compiled()
	for i := 0; i < 8; i++ {
		// A hostile pull that panics mid-parse: the parse must contain it
		// and abandon its scratch.
		pull := faultinject.WrapPull(jsonlang.Lang.Pull(strings.NewReader(src)),
			faultinject.PanicAt(50+i, fmt.Sprintf("injected %d", i)))
		res := p.ParseSource(source.FromPull(c, pull))
		if res.Kind != Error {
			t.Fatalf("panic injection %d: got %v, want Error", i, res.Kind)
		}
		// A failing pull: the parse surfaces a structured error and releases
		// its scratch normally.
		pull = faultinject.WrapPull(jsonlang.Lang.Pull(strings.NewReader(src)),
			faultinject.FailAtToken(30+i, nil))
		if res := p.ParseSource(source.FromPull(c, pull)); res.Kind != Error {
			t.Fatalf("fail injection %d: got %v, want Error", i, res.Kind)
		}
		// A canceled parse.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if res := p.ParseContext(ctx, Tokens(toks)); !res.Canceled() {
			t.Fatalf("cancel %d: got %v, want canceled error", i, res)
		}
		// After each abort, a normal parse through the (possibly recycled)
		// scratch must still be exact.
		res = p.Parse(toks)
		if res.Kind != Unique || !res.Tree.Equal(want.Tree) {
			t.Fatalf("parse after abort %d diverged: %v", i, res.Kind)
		}
	}
}

// TestPooledStreamingReuse alternates slice-backed and pull-backed parses
// through one session so the pooled cursor flips between ResetTokens and
// ResetPull, checking the word-ownership rule: a caller's token slice must
// never be scribbled on by a later pull-backed parse reusing the cursor.
func TestPooledStreamingReuse(t *testing.T) {
	src := jsonlang.Generate(3, 400)
	toks, err := jsonlang.Lang.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]grammar.Token(nil), toks...)
	p := MustNew(jsonlang.Lang.Grammar(), Options{})
	want := p.Parse(toks)
	if want.Kind != Unique {
		t.Fatalf("baseline: %v", want.Kind)
	}
	for i := 0; i < 6; i++ {
		if res := p.Parse(toks); res.Kind != Unique || !res.Tree.Equal(want.Tree) {
			t.Fatalf("slice parse %d diverged", i)
		}
		if res := p.ParseContext(context.Background(), Reader(jsonlang.Lang.Lexer(), strings.NewReader(src))); res.Kind != machine.Unique || !res.Tree.Equal(want.Tree) {
			t.Fatalf("reader parse %d diverged: %v", i, res.Kind)
		}
	}
	for i := range toks {
		if toks[i] != snapshot[i] {
			t.Fatalf("caller-owned token %d was mutated by pooled cursor reuse", i)
		}
	}
}
