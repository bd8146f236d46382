package core

import (
	"slices"
	"testing"
)

// FuzzInternIndex drives the intern index with insert/release sequences
// whose hashes are masked to 3 or 4 bits, so every probe runs through tag
// collisions and clusters wrap past the end of the slot array. After every
// operation the index must agree with a map reference model: each live
// value is found under its id, each dead one misses, and the live count
// matches. Ids are handed out the way the compact model does, from a LIFO
// free list first.
func FuzzInternIndex(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3, 0x81, 4, 0x80, 5, 6, 7, 0x82, 0x83, 1})
	f.Add(uint8(1), []byte{9, 25, 41, 57, 0x80, 9, 0x81, 0x82, 0x83, 0x84})
	long := make([]byte, 600)
	for i := range long {
		// A fixed mix of inserts (values 0..63) and releases that first
		// grows the index past 64 slots, then drains and refills it.
		v := byte(i*37 + i/7)
		if i > 150 && i%3 != 0 {
			v |= 0x80
		}
		long[i] = v
	}
	f.Add(uint8(0), long)
	f.Add(uint8(1), long)
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		mask := uint64(1)<<(3+width%2) - 1
		hashOf := func(v byte) uint64 { return hashKey([]byte{v}) & mask }

		var (
			x      internIndex
			ref    = map[byte]uint64{} // live value → id
			val    []byte              // id → value
			hashes []uint64            // id → hash
			free   []uint64
		)
		for step, op := range ops {
			if op&0x80 == 0 {
				v := op & 0x3F
				h := hashOf(v)
				id, ok := x.find(h, func(id uint64) bool { return val[id] == v })
				want, live := ref[v]
				if ok != live || ok && id != want {
					t.Fatalf("op %d: find(%d) = %d, %v; reference %d, %v", step, v, id, ok, want, live)
				}
				if ok {
					continue
				}
				if k := len(free); k > 0 {
					id, free = free[k-1], free[:k-1]
				} else {
					id = uint64(len(val))
					val, hashes = append(val, 0), append(hashes, 0)
				}
				val[id], hashes[id] = v, h
				x.insert(h, id)
				ref[v] = id
			} else {
				// Release an id, live or not: a dead id must be refused.
				if len(val) == 0 {
					continue
				}
				id := uint64(op&0x7F) % uint64(len(val))
				live := !slices.Contains(free, id)
				if got := x.remove(hashes[id], id); got != live {
					t.Fatalf("op %d: remove(id %d) = %v, want %v", step, id, got, live)
				}
				if live {
					delete(ref, val[id])
					free = append(free, id)
				}
			}
			if x.live != len(ref) {
				t.Fatalf("op %d: index holds %d live ids, reference %d", step, x.live, len(ref))
			}
			if 2*x.live > len(x.slots) {
				t.Fatalf("op %d: %d live ids in %d slots, above load ½", step, x.live, len(x.slots))
			}
			for v := byte(0); v < 64; v++ {
				id, ok := x.find(hashOf(v), func(id uint64) bool { return val[id] == v })
				want, live := ref[v]
				if ok != live || ok && id != want {
					t.Fatalf("op %d: find(%d) = %d, %v; reference %d, %v", step, v, id, ok, want, live)
				}
			}
		}
	})
}
