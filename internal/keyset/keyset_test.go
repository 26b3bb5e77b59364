package keyset

import (
	"math/rand"
	"testing"
)

type pair struct{ a, b int32 }

func (p pair) Hash() uint64 { return Mix(uint64(uint32(p.a))<<32 | uint64(uint32(p.b))) }

// TestMatchesMap drives a Set and a Go map with the same random operations
// across many resets and growths; membership must agree throughout.
func TestMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Set[pair]
	for round := 0; round < 200; round++ {
		s.Reset()
		ref := map[pair]bool{}
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			k := pair{int32(rng.Intn(40)), int32(rng.Intn(40) - 20)}
			if got, want := s.Add(k), !ref[k]; got != want {
				t.Fatalf("round %d: Add(%v) = %v, want %v", round, k, got, want)
			}
			ref[k] = true
		}
		if s.n != len(ref) {
			t.Fatalf("round %d: %d keys, want %d", round, s.n, len(ref))
		}
	}
}

// TestZeroValueAndWrap: the zero value works without Reset, and an epoch
// wrap-around does not resurrect old keys.
func TestZeroValueAndWrap(t *testing.T) {
	var s Set[pair]
	if !s.Add(pair{}) || s.Add(pair{}) {
		t.Fatal("zero-value set mishandles the zero key")
	}
	s.epoch = ^uint32(0)
	s.Add(pair{1, 2})
	s.Reset() // wraps to epoch 0, which must clear and restart at 1
	if !s.Add(pair{1, 2}) {
		t.Fatal("key survived an epoch wrap-around")
	}
}

// TestResetKeepsCapacity: reset is O(1) and keeps the grown table.
func TestResetKeepsCapacity(t *testing.T) {
	var s Set[pair]
	for i := 0; i < 1000; i++ {
		s.Add(pair{int32(i), 0})
	}
	c := len(s.slots)
	s.Reset()
	if len(s.slots) != c || s.n != 0 {
		t.Fatalf("after Reset: cap %d (was %d), %d keys", len(s.slots), c, s.n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for i := 0; i < 400; i++ {
			s.Add(pair{int32(i), 1})
		}
	}); allocs != 0 {
		t.Fatalf("reused set allocates %v times per round", allocs)
	}
}
