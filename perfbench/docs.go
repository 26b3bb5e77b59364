package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"costar/internal/allstar"
	"costar/internal/grammar"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/machine"
	"costar/internal/tree"
)

// language is one input format: its compiled language (lexer, layout,
// grammar), its seeded corpus generator, and the name `costar serve` and
// `costar compile` know it by.
type language struct {
	name string
	lang *langkit.Language
	gen  func(seed int64, targetTokens int) string
}

var (
	jsonLang   = &language{"json", jsonlang.Lang, jsonlang.Generate}
	pythonLang = &language{"python", pylang.Lang, pylang.Generate}
)

// doc is one input document with its reference outcome. The reference is
// computed at set-up, outside every timed region, by the independent
// imperative ALL(*) baseline (internal/allstar) over the batch tokenizer —
// never by the engine under test.
type doc struct {
	lang   *language
	src    string
	tokens int   // parser tokens in the reference tokenization
	ref    *flat // the baseline's Unique tree; nil for broken docs
	// treeField is `"tree":` and the JSON encoding of the baseline tree's
	// String(), as serve writes it for ?tree=1; built when asked for.
	treeField []byte
	broken    bool // one mid-document token deleted; the baseline rejects it
}

// flat is a reference tree in a pointer-free preorder encoding. Reference
// trees live for the whole run; held as *tree.Tree graphs they would be
// marked by every GC cycle of the program under test, inflating its GC
// share. Each node is three words — tag (bit 0: interior, bit 1: error),
// name index, and child count or literal length — and leaf literals are
// concatenated in preorder.
type flat struct {
	names []string
	nodes []int32
	lits  string
}

func flatten(t *tree.Tree) *flat {
	f := &flat{}
	index := map[string]int32{}
	var lits strings.Builder
	var walk func(t *tree.Tree)
	walk = func(t *tree.Tree) {
		name, x, tag := t.NT, len(t.Children), int32(1)
		if t.IsLeaf {
			name, x, tag = t.Token.Terminal, len(t.Token.Literal), 0
			lits.WriteString(t.Token.Literal)
		}
		if t.Err {
			tag |= 2
		}
		id, ok := index[name]
		if !ok {
			id = int32(len(f.names))
			index[name] = id
			f.names = append(f.names, name)
		}
		f.nodes = append(f.nodes, tag, id, int32(x))
		for _, c := range t.Children {
			walk(c)
		}
	}
	walk(t)
	f.lits = lits.String()
	return f
}

// equal reports whether t is structurally equal to the reference, with the
// semantics of tree.Equal.
func (f *flat) equal(t *tree.Tree) bool {
	i, lit := 0, 0
	return f.match(t, &i, &lit) && i == len(f.nodes) && lit == len(f.lits)
}

func (f *flat) match(t *tree.Tree, i, lit *int) bool {
	if t == nil || *i+3 > len(f.nodes) {
		return false
	}
	tag, name, x := f.nodes[*i], f.names[f.nodes[*i+1]], int(f.nodes[*i+2])
	*i += 3
	if t.IsLeaf != (tag&1 == 0) || t.Err != (tag&2 != 0) {
		return false
	}
	if t.IsLeaf {
		end := *lit + x
		if t.Token.Terminal != name || end > len(f.lits) || t.Token.Literal != f.lits[*lit:end] {
			return false
		}
		*lit = end
		return true
	}
	if t.NT != name || len(t.Children) != x {
		return false
	}
	for _, c := range t.Children {
		if !f.match(c, i, lit) {
			return false
		}
	}
	return true
}

// references holds one baseline session per language.
type references map[*language]*allstar.Parser

func (r references) parse(l *language, src string) (allstar.Result, []grammar.Token, error) {
	toks, err := l.lang.Tokenize(src)
	if err != nil {
		return allstar.Result{}, nil, err
	}
	p, ok := r[l]
	if !ok {
		p, err = allstar.New(l.lang.Grammar(), allstar.Options{})
		if err != nil {
			return allstar.Result{}, nil, err
		}
		r[l] = p
	}
	return p.Parse(toks), toks, nil
}

// corpus generates n documents with sizes log-spaced between minTok and
// maxTok parser tokens — the internal/bench.Corpus size schedule — from
// generator seeds derived from the workload seed, so each workload seed
// gives a different but reproducible corpus of the same sizes. withTree
// also keeps each reference tree as serve would send it.
func corpus(refs references, l *language, seed int64, n, minTok, maxTok int, withTree bool) ([]*doc, error) {
	docs := make([]*doc, 0, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / math.Max(float64(n-1), 1)
		want := int(float64(minTok) * math.Pow(float64(maxTok)/float64(minTok), frac))
		genSeed := seed*1_000_003 + int64(i) + 1
		src, err := sized(l, genSeed, want)
		if err != nil {
			return nil, fmt.Errorf("%s generator seed %d: %w", l.name, genSeed, err)
		}
		res, toks, err := refs.parse(l, src)
		if err != nil {
			return nil, fmt.Errorf("%s generator seed %d: %w", l.name, genSeed, err)
		}
		if res.Kind != machine.Unique {
			return nil, fmt.Errorf("%s generator seed %d: baseline verdict %v", l.name, genSeed, res.Kind)
		}
		d := &doc{lang: l, src: src, tokens: len(toks), ref: flatten(res.Tree)}
		if withTree {
			text, err := json.Marshal(res.Tree.String())
			if err != nil {
				return nil, err
			}
			d.treeField = append([]byte(`"tree":`), text...)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// sized returns the generator's document closest to want parser tokens.
// A generator's target is approximate (Python's overshoots by ~1.8x), so
// the target is rescaled a few times; otherwise a corpus's sizes, and with
// them its per-token costs, would vary from seed to seed.
func sized(l *language, seed int64, want int) (string, error) {
	best, bestN := "", 0
	target := want
	for k := 0; k < 6; k++ {
		src := l.gen(seed, target)
		toks, err := l.lang.Tokenize(src)
		if err != nil {
			return "", err
		}
		n := len(toks)
		if bestN == 0 || abs(n-want) < abs(bestN-want) {
			best, bestN = src, n
		}
		if abs(n-want)*50 <= want || n == 0 {
			break
		}
		target = max(1, target*want/n)
	}
	return best, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// breakDoc deletes one token from the middle half of d. A deletion that
// leaves a document the baseline still accepts, or that no longer lexes, is
// not a broken parse input, so the next token is tried instead.
func breakDoc(refs references, d *doc, rng *rand.Rand) (*doc, error) {
	lexs, err := d.lang.lang.Lexer().Scan(d.src)
	if err != nil {
		return nil, err
	}
	var idx []int
	for i, lx := range lexs {
		if !lx.Skip {
			idx = append(idx, i)
		}
	}
	if len(idx) < 4 {
		return nil, fmt.Errorf("%s document too short to break", d.lang.name)
	}
	start := len(idx)/4 + rng.Intn(len(idx)/2)
	for k := 0; k < len(idx)/2; k++ {
		lx := lexs[idx[(start+k)%len(idx)]]
		src := d.src[:lx.Offset] + d.src[lx.End():]
		res, toks, err := refs.parse(d.lang, src)
		if err != nil || res.Kind != machine.Reject {
			continue
		}
		return &doc{lang: d.lang, src: src, tokens: len(toks), broken: true}, nil
	}
	return nil, fmt.Errorf("%s: no single-token deletion the baseline rejects", d.lang.name)
}
