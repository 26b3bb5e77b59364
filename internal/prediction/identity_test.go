package prediction

// Cache identity: a DFA state is keyed by its (alt, node id) pairs, and
// node ids come from a hash-consed table. These tests pin the properties
// that make that sound on the bundled languages: node-id keys and content
// keys pick out the same states, interning is idempotent across racing
// goroutines, and resets drop the node table with the states.

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"costar/internal/grammar"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/machine"
)

type identityLang struct {
	name string
	lang *langkit.Language
	gen  func(seed int64, tokens int) string
}

var identityLangs = []identityLang{
	{"json", jsonlang.Lang, jsonlang.Generate},
	{"xml", xmllang.Lang, xmllang.Generate},
	{"dot", dotlang.Lang, dotlang.Generate},
	{"python", pylang.Lang, pylang.Generate},
}

// corpus returns n generated documents of l as token words.
func (l identityLang) corpus(t testing.TB, seed int64, n, size int) [][]grammar.Token {
	t.Helper()
	var out [][]grammar.Token
	for i := 0; i < n; i++ {
		toks, err := l.lang.Tokenize(l.gen(seed+int64(i), size))
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		out = append(out, toks)
	}
	return out
}

// warm parses words with a predictor on c and reports any non-Unique
// (with Errorf: racing goroutines call it too).
func warm(t testing.TB, g *grammar.Grammar, c *Cache, words [][]grammar.Token) {
	t.Helper()
	ap := New(g, Options{Cache: c})
	for i, w := range words {
		ap.Reset(ap.eng.targets, Options{Cache: c})
		if r := parse(g, ap, w); r.Kind != machine.Unique {
			t.Errorf("word %d: %v %v", i, r.Kind, r.Err)
			return
		}
	}
}

// TestStateKeysMatchContent: over every state a warm-up interns, the node-id
// key and the content key are in one-to-one correspondence — no two states
// share content (the node table merged every equal stack) — and the node
// table holds no two nodes with the same frame over the same node.
func TestStateKeysMatchContent(t *testing.T) {
	for _, l := range identityLangs {
		t.Run(l.name, func(t *testing.T) {
			g := l.lang.Grammar()
			c := NewCache()
			warm(t, g, c, l.corpus(t, 1, 6, 400))
			gen := c.gen.Load()
			byContent := make(map[string]string, len(gen.states))
			for key, st := range gen.states {
				content := canonicalKey(st.anomalous, append([]config(nil), st.configs...))
				if other, dup := byContent[content]; dup && other != key {
					t.Fatalf("two states share one content key")
				}
				byContent[content] = key
				if got := string(stateKey(nil, st.anomalous, keysOf(st.configs))); got != key {
					t.Fatalf("state stored under a key its configs do not produce")
				}
			}
			if len(byContent) != len(gen.states) || len(gen.states) == 0 {
				t.Fatalf("%d content keys for %d states", len(byContent), len(gen.states))
			}
			seen := make(map[[3]any]bool)
			for _, n := range gen.nodes.index {
				k := [3]any{n.f.Lhs, n.pos, n.below}
				if seen[k] {
					t.Fatalf("node table holds a duplicate node")
				}
				seen[k] = true
			}
		})
	}
}

// TestConcurrentInternConverges: goroutines warming one shared cache on
// the same corpus at once end with exactly the states a single goroutine
// interns alone. Run under -race, it also checks that the miss path's
// table writes and the lock-free hit path never touch the same memory
// unsynchronized.
func TestConcurrentInternConverges(t *testing.T) {
	for _, l := range identityLangs[:2] {
		t.Run(l.name, func(t *testing.T) {
			g := l.lang.Grammar()
			words := l.corpus(t, 3, 4, 300)
			alone := NewCache()
			warm(t, g, alone, words)

			shared := NewCache()
			var wg sync.WaitGroup
			for k := 0; k < 6; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					// Each goroutine walks the corpus from a different
					// word, so the racers build the same states in
					// different orders.
					rot := append(append([][]grammar.Token(nil), words[k%len(words):]...), words[:k%len(words)]...)
					warm(t, g, shared, rot)
				}(k)
			}
			wg.Wait()
			want, err := alone.Export(g.Compiled())
			if err != nil {
				t.Fatal(err)
			}
			got, err := shared.Export(g.Compiled())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("racing warm-up exported %d states / %d nodes, alone %d / %d",
					len(got.States), len(got.Nodes), len(want.States), len(want.Nodes))
			}
		})
	}
}

// collected reports, after a few GC cycles, whether the finalizer armed by
// watch has run.
func collected(done chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// watch arms a finalizer on gen and returns the channel it closes.
func watch(gen *cacheGen) chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(gen, func(*cacheGen) { close(done) })
	return done
}

// TestResetDropsNodeTable: Cache.Reset starts an empty node table, and the
// old generation — states and table — becomes garbage; a fresh per-parse
// cache (FreshCachePerParse) is likewise unreachable once its predictor is
// released or rearmed.
func TestResetDropsNodeTable(t *testing.T) {
	l := identityLangs[0]
	g := l.lang.Grammar()
	words := l.corpus(t, 5, 2, 300)

	c := NewCache()
	warm(t, g, c, words)
	if c.gen.Load().nodes.n == 0 {
		t.Fatal("warm-up interned no stack nodes")
	}
	done := watch(c.gen.Load())
	c.Reset()
	if gen := c.gen.Load(); gen.nodes.n != 0 || len(gen.states) != 0 {
		t.Fatalf("after Reset: %d nodes, %d states", gen.nodes.n, len(gen.states))
	}
	if !collected(done) {
		t.Fatal("the generation dropped by Reset is still reachable")
	}

	// FreshCachePerParse: the parser gives each parse a new cache and
	// releases the pooled predictor afterwards.
	ap := New(g, Options{})
	if r := parse(g, ap, words[0]); r.Kind != machine.Unique {
		t.Fatal(r.Kind)
	}
	done = watch(ap.Cache().gen.Load())
	ap.Release()
	if !collected(done) {
		t.Fatal("a released predictor still pins its per-parse cache")
	}
	ap.Reset(ap.eng.targets, Options{})
	if r := parse(g, ap, words[1]); r.Kind != machine.Unique {
		t.Fatal(r.Kind)
	}
	done = watch(ap.Cache().gen.Load())
	ap.Reset(ap.eng.targets, Options{})
	if !collected(done) {
		t.Fatal("a rearmed predictor still pins its previous per-parse cache")
	}
}
