// Package keyset provides the dedup set both prediction engines run their
// closures on: an open-addressing hash set that is emptied once per
// closure call and reused for the next.
//
// Emptying is O(1). Every slot records the epoch it was written in and
// Reset advances the epoch, so slots from earlier calls read as free. A
// call therefore pays for the keys it inserts, never for the capacity an
// earlier, larger call left behind — unlike clear() on a Go map, which
// walks the map's high-water capacity every time.
package keyset

// Key is a set element: comparable, with a well-mixed hash (the set masks
// off low bits).
type Key interface {
	comparable
	Hash() uint64
}

// Set is a hash set of K. The zero value is empty and ready to use; a Set
// is a single-goroutine value.
type Set[K Key] struct {
	slots []slot[K]
	epoch uint32 // epoch of live slots; 0 only before first use
	n     int    // live keys
}

type slot[K Key] struct {
	k     K
	epoch uint32
}

// Reset empties the set, keeping its capacity.
func (s *Set[K]) Reset() {
	s.n = 0
	s.epoch++
	if s.epoch == 0 { // wrapped: slots from 2^32 resets ago would read live
		clear(s.slots)
		s.epoch = 1
	}
}

// Add inserts k and reports whether it was absent.
func (s *Set[K]) Add(k K) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := k.Hash() & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			*sl = slot[K]{k: k, epoch: s.epoch}
			s.n++
			return true
		}
		if sl.k == k {
			return false
		}
	}
}

// grow doubles the table (64 slots at first), rehashing the live keys.
func (s *Set[K]) grow() {
	if s.epoch == 0 { // first use: zeroed slots must read as free
		s.epoch = 1
	}
	old := s.slots
	s.slots = make([]slot[K], max(64, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.epoch != s.epoch {
			continue
		}
		i := sl.k.Hash() & mask
		for s.slots[i].epoch == s.epoch {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// Mix finalizes a 64-bit value into a well-mixed hash (the splitmix64
// finalizer); Key implementations pack their fields and call it.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
