package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"costar/internal/artifact"
	"costar/internal/ebnf"
	"costar/internal/g4"
	"costar/internal/grammar"
	"costar/internal/languages/dotlang"
	"costar/internal/languages/jsonlang"
	"costar/internal/languages/langkit"
	"costar/internal/languages/pylang"
	"costar/internal/languages/xmllang"
	"costar/internal/lexer"
	"costar/internal/parser"
	"costar/internal/source"
)

// builtins maps the bundled benchmark languages to their full lexer+layout
// pipelines and corpus generators (the generators drive session warm-up and
// the serve load figure).
var builtins = map[string]struct {
	lang *langkit.Language
	gen  func(seed int64, targetTokens int) string
}{
	"json":   {jsonlang.Lang, jsonlang.Generate},
	"xml":    {xmllang.Lang, xmllang.Generate},
	"dot":    {dotlang.Lang, dotlang.Generate},
	"python": {pylang.Lang, pylang.Generate},
}

// BuiltinNames lists the languages AddLanguage accepts, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Session is one pre-warmed parser keyed by grammar name: the long-lived
// parser session (shared concurrent SLL DFA cache, pooled scratch) plus the
// token-cursor constructor that turns a request body into its input. A
// Session serves concurrent requests; the parser's batch-safe internals do
// the sharing.
type Session struct {
	name        string
	fingerprint uint64
	origin      string // "builtin" or "artifact"
	p           *parser.Parser
	cursor      func(io.Reader) *source.Cursor
}

// Name is the grammar key clients address in /parse/{name}.
func (s *Session) Name() string { return s.name }

// Fingerprint is the compiled grammar's structural fingerprint.
func (s *Session) Fingerprint() uint64 { return s.fingerprint }

// Origin reports where the session came from: "builtin" or "artifact".
func (s *Session) Origin() string { return s.origin }

// Certified reports whether the session runs with a verified
// well-formedness certificate (no dynamic left-recursion checks).
func (s *Session) Certified() bool { return s.p.Certified() }

// Parser exposes the underlying session for stats scraping.
func (s *Session) Parser() *parser.Parser { return s.p }

// Parse runs one request body through the session under ctx. Cancellation,
// deadlines, limits, and panics all come back as structured Results — the
// caller never sees a goroutine die or a verdict invented by failure.
func (s *Session) Parse(ctx context.Context, r io.Reader) parser.Result {
	return s.p.ParseContext(ctx, parser.Stream(s.cursor(r)))
}

// Registry is the set of sessions a server exposes, keyed by grammar name.
// Sessions are registered at boot and read-mostly afterwards; the lock is
// for the map only — sessions themselves are concurrency-safe.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Session
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Session)}
}

// Get looks a session up by grammar name.
func (reg *Registry) Get(name string) (*Session, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	s, ok := reg.byName[name]
	return s, ok
}

// Sessions returns every registered session, sorted by name.
func (reg *Registry) Sessions() []*Session {
	reg.mu.RLock()
	out := make([]*Session, 0, len(reg.byName))
	for _, s := range reg.byName {
		out = append(out, s)
	}
	reg.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (reg *Registry) add(s *Session) error {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.byName[s.name]; dup {
		return fmt.Errorf("serve: duplicate grammar %q", s.name)
	}
	reg.byName[s.name] = s
	return nil
}

// AddLanguage registers a built-in benchmark language and warms its SLL DFA
// on a small generated corpus, so the first real request pays steady-state
// cost rather than cold-cache prediction. opts.Recover is forced on: the
// server always parses in recovering mode and collapses the verdict at the
// HTTP layer when the caller did not opt in (see the handler).
func (reg *Registry) AddLanguage(name string, opts parser.Options) (*Session, error) {
	b, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown language %q (have %s)", name, strings.Join(BuiltinNames(), ", "))
	}
	opts.Recover = true
	p, err := parser.New(b.lang.Grammar(), opts)
	if err != nil {
		return nil, fmt.Errorf("serve: building %s session: %w", name, err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		toks, err := b.lang.Tokenize(b.gen(seed, 400))
		if err != nil {
			return nil, fmt.Errorf("serve: warming %s session: %w", name, err)
		}
		if res := p.Parse(toks); res.Kind == parser.Error {
			return nil, fmt.Errorf("serve: warming %s session: %w", name, res.Err)
		}
	}
	s := &Session{
		name:        name,
		fingerprint: b.lang.Grammar().Compiled().Fingerprint(),
		origin:      "builtin",
		p:           p,
		cursor:      b.lang.Cursor,
	}
	if err := reg.add(s); err != nil {
		return nil, err
	}
	return s, nil
}

// AddArtifact registers a session booted from an ahead-of-time artifact —
// the fleet-member warm start: tables, certificate, and the warmed DFA
// snapshot all come from the artifact, so the session answers its first
// request with a hot cache. The token cursor resolves exactly like the CLI:
// an artifact named after a built-in language with a matching grammar
// fingerprint uses that language's full lexer+layout pipeline; an embedded
// lexer grammar is recompiled; anything else reads the whitespace word
// format.
func (reg *Registry) AddArtifact(a *artifact.Artifact, opts parser.Options) (*Session, error) {
	opts.Recover = true
	p, err := parser.NewFromArtifact(a, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: loading artifact %q: %w", a.Name, err)
	}
	var cursor func(io.Reader) *source.Cursor
	if b, ok := builtins[a.Name]; ok && b.lang.Grammar().Compiled().Fingerprint() == a.Fingerprint {
		cursor = b.lang.Cursor
	}
	if cursor == nil && a.LexerG4 != "" {
		f, err := g4.Parse(a.LexerG4)
		if err != nil {
			return nil, fmt.Errorf("serve: recompiling artifact lexer: %w", err)
		}
		if _, err := ebnf.Desugar(f.Parser); err != nil {
			return nil, fmt.Errorf("serve: recompiling artifact lexer: %w", err)
		}
		lex, err := lexer.New(f.Lexer)
		if err != nil {
			return nil, fmt.Errorf("serve: recompiling artifact lexer: %w", err)
		}
		cg := p.Grammar().Compiled()
		cursor = func(r io.Reader) *source.Cursor { return source.FromPull(cg, lex.Pull(r)) }
	}
	if cursor == nil {
		cg := p.Grammar().Compiled()
		cursor = func(r io.Reader) *source.Cursor { return source.FromPull(cg, wordPull(r)) }
	}
	s := &Session{
		name:        a.Name,
		fingerprint: a.Fingerprint,
		origin:      "artifact",
		p:           p,
		cursor:      cursor,
	}
	if err := reg.add(s); err != nil {
		return nil, err
	}
	return s, nil
}

// AddArtifactFile reads, decodes, and registers an artifact file.
func (reg *Registry) AddArtifactFile(path string, opts parser.Options) (*Session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := artifact.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return reg.AddArtifact(a, opts)
}

// wordPull streams whitespace-separated terminal names as tokens — the
// -bnf word format, mirrored from the CLI for artifacts with no lexer.
func wordPull(r io.Reader) func() (grammar.Token, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Split(bufio.ScanWords)
	return func() (grammar.Token, bool, error) {
		if !sc.Scan() {
			return grammar.Token{}, false, sc.Err()
		}
		n := sc.Text()
		return grammar.Tok(n, n), true, nil
	}
}
