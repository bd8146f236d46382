// hash.go content-addresses cells. A cell's address is the SHA-256 of a
// canonical, field-ordered binary encoding of its resolved CellSpec — not
// of its JSON (map-free, but field order and omitempty make JSON a fragile
// canonical form) — prefixed by three version numbers:
//
//   - HashVersion: the encoding itself (field set and order below);
//   - EngineEpoch: the simulation semantics. Bump it whenever an engine
//     change alters what any cell computes (a PRNG tweak, a transition-rule
//     fix, a budget-default change) — every cached result is then invisible
//     to lookups, which is exactly right: it no longer describes what the
//     engine would compute;
//   - sspp.EnsembleSchemaVersion: the result JSON layout, hashed so cached
//     bytes always carry the layout the current engine would emit.
//
// The encoding is injective on CellSpec: every variable-length field is
// length-prefixed and every field is written unconditionally in declaration
// order, so no two distinct specs share an encoding.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"sspp"
)

const (
	// HashVersion identifies the canonical CellSpec encoding below.
	HashVersion = 1
	// EngineEpoch identifies the engine's simulation semantics; see above.
	// Epoch 2: a cell's parallel time summarizes each trial's clock reading
	// rather than interactions/n₀, which moves continuous-clock and churn
	// cells (DESIGN.md §13).
	// Epoch 3: DetectCollision_r's duplicate check no longer reads marks a
	// pass over a larger group left behind, which raised false ⊤ when r
	// does not divide n; it moves ElectLeader cells with unequal groups.
	EngineEpoch = 3
)

// hasher accumulates the canonical encoding.
type hasher struct {
	buf []byte
}

func (h *hasher) u64(v uint64) {
	h.buf = binary.AppendUvarint(h.buf, v)
}

func (h *hasher) i64(v int64) {
	h.buf = binary.AppendVarint(h.buf, v)
}

func (h *hasher) f64(v float64) {
	h.buf = binary.BigEndian.AppendUint64(h.buf, math.Float64bits(v))
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *hasher) bool(v bool) {
	if v {
		h.buf = append(h.buf, 1)
	} else {
		h.buf = append(h.buf, 0)
	}
}

// Hash returns the cell's content address: 64 lowercase hex digits.
func (c *CellSpec) Hash() string {
	// A cell without a workload encodes to well under 256 bytes, so one
	// buffer on the stack holds it; a longer workload grows it.
	var scratch [256]byte
	h := hasher{buf: scratch[:0]}
	h.u64(HashVersion)
	h.u64(EngineEpoch)
	h.u64(sspp.EnsembleSchemaVersion)
	h.str(c.Protocol)
	h.str(c.Backend)
	h.str(c.Topology)
	h.str(c.Clock)
	h.i64(int64(c.Point.N))
	h.i64(int64(c.Point.R))
	h.str(c.Adversary)
	h.i64(int64(c.Seeds))
	h.u64(c.BaseSeed)
	h.u64(c.MaxInteractions)
	h.u64(c.Confirm)
	h.i64(int64(c.TransientK))
	h.i64(int64(c.Tau))
	h.bool(c.SyntheticCoins)
	h.u64(uint64(len(c.Workload)))
	for _, p := range c.Workload {
		h.str(p.Kind)
		h.u64(p.At)
		h.u64(p.Start)
		h.u64(p.End)
		h.u64(p.Every)
		h.i64(int64(p.K))
		h.i64(int64(p.Delta))
		h.i64(int64(p.Joins))
		h.i64(int64(p.Leaves))
		h.f64(p.Rate)
		h.f64(p.JoinFrac)
		h.str(p.Class)
		h.u64(p.Seed)
	}
	sum := sha256.Sum256(h.buf)
	return hex.EncodeToString(sum[:])
}
