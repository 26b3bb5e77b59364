package artifact_test

// FuzzArtifactDecode: the artifact decoder and load path on adversarial
// bytes. Properties: Decode never panics and never over-allocates on a
// hostile length field (the decoder caps every count against the bytes
// remaining); a successful Decode is canonical — re-encoding reproduces the
// input bit-for-bit; and a successful Realize never yields a session whose
// certificate state disagrees with the artifact (corrupted bytes cannot
// produce a certified session).

import (
	"bytes"
	"testing"

	"costar/internal/artifact"
)

func FuzzArtifactDecode(f *testing.F) {
	// Seeds: a warmed artifact, a cold one, and near-miss corruptions the
	// mutator can grow from.
	valid := artifact.Encode(calcArtifact(f))
	f.Add(valid)
	truncated := valid[:len(valid)*2/3]
	f.Add(append([]byte(nil), truncated...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	f.Add([]byte("CSAR"))
	f.Add([]byte{})
	// Well-sealed artifacts whose cache node references are malformed.
	for _, tc := range nodeRefTamperings {
		a := calcArtifact(f)
		tc.mutate(a)
		f.Add(artifact.Encode(a))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := artifact.Decode(data)
		if err != nil {
			if a != nil {
				t.Fatal("Decode returned both an artifact and an error")
			}
			return
		}
		// The format has one encoding per value: a decoded artifact must
		// re-encode to exactly the bytes it came from.
		if enc := artifact.Encode(a); !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d out", len(data), len(enc))
		}
		r, err := a.Realize()
		if err != nil {
			return // well-formed bytes, inconsistent content: rejected is correct
		}
		// A realized session's certificate state must mirror the artifact:
		// present iff recorded, and re-bound to the recompiled grammar.
		c := r.Grammar.Compiled()
		switch {
		case a.Cert == nil && c.Certificate() != nil:
			t.Fatal("certificate appeared without being recorded")
		case a.Cert != nil && (c.Certificate() == nil || c.Certificate().Fingerprint != c.Fingerprint()):
			t.Fatal("recorded certificate not re-bound on load")
		}
	})
}
