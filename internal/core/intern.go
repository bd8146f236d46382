// intern.go holds the hash side of the compact model's intern table
// (compact.go): a fixed 64-bit hash of canonical encodings, and the
// open-addressed index that files table ids under it. The index only
// decides where an id is filed, never which id a state gets, so the hash
// cannot influence a result — it takes the hash as an argument, and the
// caller supplies the equality test.

package core

import (
	"encoding/binary"
	"math/bits"
)

// hashKey is a fixed, unseeded 64-bit hash of a canonical encoding: eight
// bytes at a time through a multiply-fold mix, then the splitmix64
// finalizer, so the low bits the index probes on depend on every byte.
func hashKey(b []byte) uint64 {
	const k = 0x9E3779B97F4A7C15
	h := uint64(len(b))
	for ; len(b) >= 8; b = b[8:] {
		hi, lo := bits.Mul64(h^binary.LittleEndian.Uint64(b), k)
		h = hi ^ lo
	}
	var t uint64
	for i := len(b) - 1; i >= 0; i-- {
		t = t<<8 | uint64(b[i])
	}
	hi, lo := bits.Mul64(h^t, k)
	h = hi ^ lo
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	return h ^ h>>31
}

// idBits is the width of the id field of an index word; the tag takes the
// rest.
const (
	idBits = 32
	idMask = 1<<idBits - 1
)

// internIndex files table ids by hash. Each slot holds tag<<32 | id+1, where
// the tag is the hash's low 32 bits (0 marks an empty slot); the tag's low
// bits pick the home slot, so the index re-files its words without the
// hashes. Linear probing, backward-shift deletion (no tombstones), and
// doubling at load ½ from 16 slots on first use: the index grows with the
// live entries, never with the population.
type internIndex struct {
	slots []uint64
	live  int
}

// find returns the id filed under h for which eq holds. eq runs only on
// ids whose tag matches h's.
func (x *internIndex) find(h uint64, eq func(id uint64) bool) (uint64, bool) {
	if x.live == 0 {
		return 0, false
	}
	mask := uint64(len(x.slots) - 1)
	tag := h & idMask
	for i := tag & mask; ; i = (i + 1) & mask {
		w := x.slots[i]
		if w == 0 {
			return 0, false
		}
		if w>>idBits == tag && eq(w&idMask-1) {
			return w&idMask - 1, true
		}
	}
}

// insert files id under h. The caller has checked that no equal state is
// filed (find missed).
func (x *internIndex) insert(h, id uint64) {
	if id >= idMask {
		panic("core: intern index ids must stay below 2³²−1")
	}
	if 2*(x.live+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]uint64, max(16, 2*len(old)))
		for _, w := range old {
			if w != 0 {
				x.place(w)
			}
		}
	}
	x.place(h&idMask<<idBits | (id + 1))
	x.live++
}

// place writes w into the first empty slot from its home.
func (x *internIndex) place(w uint64) {
	mask := uint64(len(x.slots) - 1)
	i := w >> idBits & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = w
}

// remove unfiles id from under h and reports whether it was filed there.
// The hole is closed by shifting back every later word of its cluster that
// may legally sit in it, so probes never need tombstones.
func (x *internIndex) remove(h, id uint64) bool {
	if x.live == 0 {
		return false
	}
	mask := uint64(len(x.slots) - 1)
	want := h&idMask<<idBits | (id + 1)
	i := h & mask
	for x.slots[i] != want {
		if x.slots[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The word at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if home := x.slots[j] >> idBits & mask; (j-home)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = 0
	x.live--
	return true
}
