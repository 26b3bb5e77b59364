package artifact_test

// Adversarial decoding and load-time verification: corrupted bytes must
// always be rejected with a structured error (never a panic, never a
// silently degraded session), and semantic tampering that survives the
// checksum must still fail the realize-time identity checks.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"costar/internal/artifact"
	"costar/internal/grammar"
	"costar/internal/grammarlint"
	"costar/internal/machine"
	"costar/internal/parser"
)

var update = flag.Bool("update", false, "rewrite the golden artifact in testdata")

// calcGrammar is a small fixed grammar for codec tests and the golden
// artifact: stable productions, a certificate, and enough structure to warm
// a few DFA states.
func calcGrammar(t testing.TB) *grammar.Grammar {
	t.Helper()
	g, err := grammar.ParseBNF(`
		expr -> term expr_star
		expr_star -> plus term expr_star |
		term -> num | lparen expr rparen
	`)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// calcArtifact builds a deterministic warmed artifact over calcGrammar.
func calcArtifact(t testing.TB) *artifact.Artifact {
	t.Helper()
	g := calcGrammar(t)
	if _, _, err := grammarlint.Certify(g); err != nil {
		t.Fatal(err)
	}
	p := parser.MustNew(g, parser.Options{})
	words := [][]string{
		{"num"},
		{"num", "plus", "num"},
		{"lparen", "num", "plus", "num", "rparen", "plus", "num"},
	}
	for _, w := range words {
		toks := make([]grammar.Token, len(w))
		for i, n := range w {
			toks[i] = grammar.Tok(n, n)
		}
		if res := p.Parse(toks); res.Kind != machine.Unique {
			t.Fatalf("warm word %v: %v", w, res.Kind)
		}
	}
	a, err := p.ExportArtifact("calc", "")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDecodeHeaderErrors: the three header failures map to their sentinel
// errors.
func TestDecodeHeaderErrors(t *testing.T) {
	data := artifact.Encode(calcArtifact(t))

	if _, err := artifact.Decode(nil); !errors.Is(err, artifact.ErrCorrupt) {
		t.Errorf("nil input: %v", err)
	}
	notMagic := append([]byte("NOPE"), data[4:]...)
	if _, err := artifact.Decode(notMagic); !errors.Is(err, artifact.ErrNotArtifact) {
		t.Errorf("bad magic: %v", err)
	}

	// Future version: bump the version field and re-seal the checksum, so
	// only the version check can object.
	future := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(future[4:], artifact.Version+1)
	reseal(future)
	if _, err := artifact.Decode(future); !errors.Is(err, artifact.ErrVersion) {
		t.Errorf("future version: %v", err)
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := artifact.Decode(flipped); !errors.Is(err, artifact.ErrCorrupt) {
		t.Errorf("checksum flip: %v", err)
	}
}

// reseal recomputes the trailing checksum over data[:len-4] (test-only
// tampering helper; mirrors the encoder's seal).
func reseal(data []byte) {
	sum := crc32.Checksum(data[:len(data)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
}

// TestDecodeEveryTruncation: every proper prefix of a valid artifact must
// fail cleanly.
func TestDecodeEveryTruncation(t *testing.T) {
	data := artifact.Encode(calcArtifact(t))
	for n := 0; n < len(data); n++ {
		if _, err := artifact.Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(data))
		}
	}
}

// TestDecodeEveryByteFlip: any single corrupted byte is caught (the
// checksum covers the whole stream, including the header).
func TestDecodeEveryByteFlip(t *testing.T) {
	data := artifact.Encode(calcArtifact(t))
	buf := make([]byte, len(data))
	for i := range data {
		copy(buf, data)
		buf[i] ^= 0x01
		if _, err := artifact.Decode(buf); err == nil {
			t.Fatalf("flip at byte %d/%d decoded successfully", i, len(data))
		}
	}
}

// TestRealizeRejectsTampering: struct-level tampering that a checksum
// cannot see (the attacker re-seals) must fail Realize's identity checks —
// and a certificate mismatch is a hard failure, never a silent downgrade
// to an uncertified session.
func TestRealizeRejectsTampering(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(a *artifact.Artifact)
		want   error
	}{
		{"fingerprint", func(a *artifact.Artifact) { a.Fingerprint ^= 1 }, artifact.ErrMismatch},
		{"certificate", func(a *artifact.Artifact) { a.Cert.Fingerprint ^= 1 }, artifact.ErrMismatch},
		{"start symbol", func(a *artifact.Artifact) { a.Tables.Start = 99 }, artifact.ErrCorrupt},
		{"production lhs", func(a *artifact.Artifact) { a.Tables.ProdLhs[0] = 87 }, artifact.ErrCorrupt},
		// Renaming a terminal desynchronizes the recorded interning (terminal
		// names are interned sorted), so the tables self-check catches it
		// before the fingerprint comparison would.
		{"renamed terminal", func(a *artifact.Artifact) { a.Tables.TermNames[0] = "zzz" }, artifact.ErrCorrupt},
		{"targets production", func(a *artifact.Artifact) { a.Targets[0].Prods[0] = 9999 }, artifact.ErrCorrupt},
		{"analysis shape", func(a *artifact.Artifact) { a.Analysis.Nullable = a.Analysis.Nullable[:1] }, artifact.ErrCorrupt},
		{"cache edge target", func(a *artifact.Artifact) {
			for i := range a.Cache.States {
				if len(a.Cache.States[i].EdgeStates) > 0 {
					a.Cache.States[i].EdgeStates[0] = 9999
					return
				}
			}
			panic("warmed artifact has no edges")
		}, artifact.ErrCorrupt},
		{"cache config alt", func(a *artifact.Artifact) {
			for i := range a.Cache.States {
				if len(a.Cache.States[i].Configs) > 0 {
					a.Cache.States[i].Configs[0].Alt = 9999
					return
				}
			}
			panic("warmed artifact has no configs")
		}, artifact.ErrCorrupt},
	}
	cases = append(cases, nodeRefTamperings...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := calcArtifact(t)
			tc.mutate(a)
			// The byte layer accepts the re-sealed stream; the semantic layer
			// must not.
			back, err := artifact.Decode(artifact.Encode(a))
			if err != nil {
				t.Fatalf("decode of re-sealed tampering failed early: %v", err)
			}
			if _, err := back.Realize(); !errors.Is(err, tc.want) {
				t.Errorf("Realize = %v, want %v", err, tc.want)
			}
		})
	}
}

// nodeRefTamperings corrupt the cache's node references: a node resting
// on itself, on a later node, or on no node at all, and a config naming a
// node the table does not have. Each decodes (the byte layer is
// syntactic) and must fail Realize.
var nodeRefTamperings = []struct {
	name   string
	mutate func(a *artifact.Artifact)
	want   error
}{
	{"cache node below self", func(a *artifact.Artifact) {
		n := lastNode(a)
		a.Cache.Nodes[n].Below = int32(n)
	}, artifact.ErrCorrupt},
	{"cache node below forward", func(a *artifact.Artifact) {
		a.Cache.Nodes[0].Below = int32(lastNode(a))
	}, artifact.ErrCorrupt},
	{"cache node below out of range", func(a *artifact.Artifact) {
		a.Cache.Nodes[lastNode(a)].Below = -2
	}, artifact.ErrCorrupt},
	{"cache config node out of range", func(a *artifact.Artifact) {
		for i := range a.Cache.States {
			if len(a.Cache.States[i].Configs) > 0 {
				a.Cache.States[i].Configs[0].Node = int32(len(a.Cache.Nodes))
				return
			}
		}
		panic("warmed artifact has no configs")
	}, artifact.ErrCorrupt},
}

// lastNode returns the index of the artifact's last cache node, which the
// bottom-up table order guarantees is not the first.
func lastNode(a *artifact.Artifact) int {
	if len(a.Cache.Nodes) < 2 {
		panic("warmed artifact has fewer than two stack nodes")
	}
	return len(a.Cache.Nodes) - 1
}

// TestGoldenArtifact pins the version-2 byte format: the checked-in golden
// artifact must keep decoding, realizing, re-encoding bit-identically, and
// parsing — so a payload-layout change without a Version bump fails here.
func TestGoldenArtifact(t *testing.T) {
	golden := filepath.Join("testdata", "calc_v2.csar")
	if *update {
		if err := os.WriteFile(golden, artifact.Encode(calcArtifact(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/artifact -run TestGoldenArtifact -update` after an intentional format change)", err)
	}
	a, err := artifact.Decode(data)
	if err != nil {
		t.Fatalf("golden artifact no longer decodes: %v", err)
	}
	if !bytes.Equal(artifact.Encode(a), data) {
		t.Fatal("golden artifact does not re-encode bit-identically")
	}
	if !reflect.DeepEqual(a, calcArtifact(t)) {
		t.Fatal("building the calc artifact from source no longer reproduces the golden artifact")
	}
	p, err := parser.NewFromArtifact(a, parser.Options{})
	if err != nil {
		t.Fatalf("golden artifact no longer realizes: %v", err)
	}
	if !p.Certified() {
		t.Fatal("golden artifact session is not certified")
	}
	word := []grammar.Token{grammar.Tok("num", "1"), grammar.Tok("plus", "+"), grammar.Tok("num", "2")}
	if res := p.Parse(word); res.Kind != machine.Unique {
		t.Fatalf("golden artifact session rejects num plus num: %v", res.Kind)
	}
}

// TestGoldenV1Rejected: artifacts written in the version-1 layout (configs
// with inline frames) are refused with ErrVersion rather than misread.
func TestGoldenV1Rejected(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "calc_v1.csar"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := artifact.Decode(data); !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("version-1 artifact: Decode = %v, want ErrVersion", err)
	}
}
