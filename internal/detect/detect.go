// Package detect implements DetectCollision_r (Section 5.1, Protocol 3 and
// Appendix E, Protocols 12–14), the paper's main technical contribution: a
// message-based rank-collision detector.
//
// Within each group of the rank partition (partition.go), every rank governs
// 2g² circulating messages (g being the group size). A message is a triple
// (rank, ID, content); contents carry the governing agent's signature, a
// value from [g⁵] refreshed every Θ(log g) of the agent's in-group
// interactions. Each agent records, per message ID it governs, the content
// it last wrote (the observations array). Messages spread through the group
// by a deterministic per-(rank, content) load-balancing exchange
// (BalanceLoad, Protocol 14). The error state ⊤ is raised when
//
//   - two agents of the same rank meet (obvious collision),
//   - two copies of the same circulating message meet (impossible from a
//     correct initialization, where each message has exactly one holder), or
//   - a circulating message disagrees with its governor's observation
//     (CheckMessageConsistency, Protocol 12) — the mechanism that makes
//     detection fast: a duplicate-rank agent refreshes its signature and
//     floods 2g messages per rank that conflict with its competitor's
//     records.
//
// Lemma E.1 establishes soundness (no ⊤ reachable from a correct
// initialization on a correct ranking — experiment T8) and robust
// completeness (⊤ within O((n²/r)·log n) interactions from any configuration
// with a duplicate rank — experiment T7).
package detect

import (
	"fmt"
	"math"
	"slices"

	"sspp/internal/coin"
)

// maxSigSpace caps the signature space. The paper uses [g⁵], which overflows
// int32 for large groups; capping keeps contents in 32 bits while preserving
// an O(g⁻³) collision probability at any simulation scale.
const maxSigSpace = int32(1) << 30

// Params holds the static configuration of DetectCollision_r.
type Params struct {
	pt *Partition
	// csig scales the signature refresh period c·log(g) (Protocol 13).
	csig int32
	// noBalance disables BalanceLoad (Protocol 14) — the ablation knob of
	// experiment A4. Without load balancing, refreshed messages stay
	// clumped at their governor and detection degrades to direct meetings.
	noBalance bool
	// sigOverride, when positive, replaces the [g⁵] signature space — used
	// by the model checker to keep the branching factor finite.
	sigOverride int32
}

// SetNoBalance toggles the BalanceLoad ablation (experiment A4).
func (p *Params) SetNoBalance(v bool) { p.noBalance = v }

// SetSigSpace overrides the signature space (clamped to at least 2). Only
// the bounded model checker should need this; it shrinks the randomness
// domain so every draw can be enumerated.
func (p *Params) SetSigSpace(s int32) {
	if s < 2 {
		s = 2
	}
	p.sigOverride = s
}

// sigSpace returns the effective signature space for a group of size g.
func (p *Params) sigSpace(g int32) int32 {
	if p.sigOverride > 0 {
		return p.sigOverride
	}
	return SigSpace(g)
}

// NewParams builds parameters for population size n and trade-off parameter
// r, partitioning the rank space into ⌈n/r⌉ groups.
func NewParams(n, r int) *Params {
	return &Params{pt: NewPartition(n, r), csig: 8}
}

// NewParamsWithRefresh is NewParams with an explicit signature-refresh
// constant c (Protocol 13's c·log r_u); values below 1 are clamped to 1.
func NewParamsWithRefresh(n, r int, c int) *Params {
	if c < 1 {
		c = 1
	}
	p := NewParams(n, r)
	p.csig = int32(c)
	return p
}

// Partition exposes the underlying rank partition.
func (p *Params) Partition() *Partition { return p.pt }

// SigSpace returns the signature space size for a group of size g: g⁵
// clamped to [2, maxSigSpace].
func SigSpace(g int32) int32 {
	s := math.Pow(float64(g), 5)
	if s < 2 {
		return 2
	}
	if s > float64(maxSigSpace) {
		return maxSigSpace
	}
	return int32(s)
}

// RefreshPeriod returns the signature refresh period c·log(g) for a group of
// size g (at least 2).
func (p *Params) RefreshPeriod(g int32) int32 {
	t := int32(math.Ceil(float64(p.csig) * math.Log(float64(g)+1)))
	if t < 2 {
		t = 2
	}
	return t
}

// msg is one circulating message: its ID within the governing rank's ID
// space [2g²] and its current content (a signature value).
type msg struct {
	id      int32
	content int32
}

// State is the per-agent local state of DetectCollision_r (the qDC field of
// StableVerify_r). The rank itself lives outside this struct (read-only
// input, §5.1).
type State struct {
	// Err is the absorbing error state ⊤.
	Err bool
	// Signature is the content the agent currently writes into messages it
	// governs.
	Signature int32
	// Counter counts in-group interactions until the next signature refresh.
	Counter int32
	// Msgs holds the circulating messages this agent carries, indexed by
	// the governing rank's index within the agent's group; each row is a
	// list of (ID, content) pairs.
	Msgs [][]msg
	// Obs is the observations array: Obs[j-1] is the content the agent last
	// wrote into its own message with ID j.
	Obs []int32
}

// InitState returns the clean initial state q0,DC for an agent of the given
// rank (§5.1): signature, counter and all observations are 1, and the agent
// holds the hardcoded pre-mixed block of message IDs
// {2(p−1)g+1, …, 2pg} for every rank of its group, all with content 1,
// where p is the rank's position in its group. Out-of-range ranks yield an
// immediate ⊤ (they cannot occur in valid configurations).
func InitState(p *Params, rank int32) *State {
	return ReinitInto(p, rank, nil)
}

// ReinitInto resets s to the clean initial state q0,DC for rank, reusing its
// message and observation buffers when they have the right shape; a nil s
// allocates fresh (InitState). Callers recycling states across role
// transitions use this to avoid re-allocating the O(g²) detection state.
//
// A row whose capacity is below 2g gets the 3-index subslice
// slab[2g·i : 2g·i : 2g·(i+1)] of one 2g²-message slab per call: its
// capacity ends where its neighbour's begins, so a row that later grows past
// 2g reallocates instead of overwriting row i+1. Every row of the clean state
// is the same 2g-message block, so row 0 is written once and copied.
func ReinitInto(p *Params, rank int32, s *State) *State {
	g := p.pt.SizeOf(rank)
	if g == 0 {
		if s == nil {
			return &State{Err: true}
		}
		*s = State{Err: true}
		return s
	}
	if s == nil {
		s = &State{}
	}
	w := int(2 * g) // row width: the 2g messages of one pre-mixed block
	s.Err = false
	s.Signature = 1
	s.Counter = 1
	if cap(s.Obs) >= w*int(g) {
		s.Obs = s.Obs[:w*int(g)]
	} else {
		s.Obs = make([]int32, w*int(g))
	}
	s.Obs[0] = 1
	for k := 1; k < len(s.Obs); k *= 2 {
		copy(s.Obs[k:], s.Obs[:k])
	}
	if cap(s.Msgs) >= int(g) {
		s.Msgs = s.Msgs[:g]
	} else {
		s.Msgs = make([][]msg, g)
	}
	var slab []msg
	for i := range s.Msgs {
		row := s.Msgs[i]
		if cap(row) < w {
			if slab == nil {
				slab = make([]msg, w*int(g))
			}
			row = slab[w*i : w*i : w*(i+1)]
		}
		row = row[:w]
		if i == 0 {
			lo := 2 * (p.pt.PosOf(rank) - 1) * g // IDs lo+1 .. lo+2g
			for k := range row {
				row[k] = msg{id: lo + int32(k) + 1, content: 1}
			}
		} else {
			copy(row, s.Msgs[0])
		}
		s.Msgs[i] = row
	}
	return s
}

// MessageCount returns the number of circulating messages the agent holds.
func (s *State) MessageCount() int {
	c := 0
	for _, row := range s.Msgs {
		c += len(row)
	}
	return c
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State { return s.CloneInto(nil) }

// CloneInto deep-copies s into dst, reusing dst's row and observation
// buffers; a nil dst allocates a fresh state. The species-backend compact
// model copies interned representatives into reaction scratch on every
// interaction, so this path must not allocate once the buffers have grown.
func (s *State) CloneInto(dst *State) *State {
	if dst == nil {
		dst = &State{}
	}
	dst.Err, dst.Signature, dst.Counter = s.Err, s.Signature, s.Counter
	dst.Obs = append(dst.Obs[:0], s.Obs...)
	if cap(dst.Msgs) >= len(s.Msgs) {
		dst.Msgs = dst.Msgs[:len(s.Msgs)]
	} else {
		rows := make([][]msg, len(s.Msgs))
		copy(rows, dst.Msgs) // keep already-grown row buffers
		dst.Msgs = rows
	}
	for i, row := range s.Msgs {
		dst.Msgs[i] = append(dst.Msgs[i][:0], row...)
	}
	return dst
}

// appendI32 appends v as 4 little-endian bytes.
func appendI32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// AppendKey appends a canonical encoding of the state to b and returns the
// extended slice. Two states with the same key are semantically identical:
// the in-row message order (which BalanceLoad permutes) is canonicalized to
// the (content, id) row order of sortMsgs — the invariant clean executions
// already maintain, so the common case encodes in place without copying.
// Every field is encoded at full width: signatures range over [1, 2g²·n²]
// and counters over [0, RefreshRate], both of which overflow narrower
// encodings long before the n = 10⁶ populations the species backend runs.
// The model checker and the compact-model intern tables use keys to
// deduplicate configurations, so a truncation here is a state collision.
func (s *State) AppendKey(b []byte) []byte {
	if s.Err {
		return append(b, 0xFF)
	}
	b = appendI32(b, s.Signature)
	b = appendI32(b, s.Counter)
	for _, row := range s.Msgs {
		if !msgsSorted(row) {
			row = append([]msg(nil), row...)
			sortMsgs(row)
		}
		b = append(b, 0xFE)
		for _, m := range row {
			b = appendI32(b, m.id)
			b = appendI32(b, m.content)
		}
	}
	b = append(b, 0xFD)
	for _, o := range s.Obs {
		b = appendI32(b, o)
	}
	return b
}

// Scratch holds reusable buffers for Interact. One Scratch may be shared by
// all agents of a single-threaded simulation; it grows on demand.
type Scratch struct {
	merged []msg
	spill  []msg
	seen   []int64
	epoch  int64
}

// NewScratch returns an empty scratch buffer.
func NewScratch() *Scratch { return &Scratch{} }

// mark prepares the seen array for a new deduplication pass over an ID space
// of the given size.
func (sc *Scratch) mark(idSpace int32) {
	if int(idSpace) > len(sc.seen) {
		sc.seen = make([]int64, idSpace)
		sc.epoch = 0
	}
	sc.epoch++
}

// Interact applies DetectCollision_r (Protocol 3) to the ordered pair with
// ranks uRank, vRank and states u, v. su and sv supply the agents'
// randomness for signature refreshes. Already-errored states are left for
// the wrapper to collect (⊤ is absorbing).
func Interact(p *Params, uRank int32, u *State, vRank int32, v *State, su, sv coin.Sampler, sc *Scratch) {
	// Line 1–2: only same-group pairs interact non-trivially.
	if !p.pt.SameGroup(uRank, vRank) {
		return
	}
	if u.Err || v.Err {
		return
	}
	g := p.pt.SizeOf(uRank)

	// Lines 3–4: shared rank, or two copies of one circulating message.
	if uRank == vRank || duplicateMessage(g, u, v, sc) {
		u.Err, v.Err = true, true
		return
	}

	// Line 5: CheckMessageConsistency both ways (Protocol 12).
	checkConsistency(p, uRank, u, v)
	checkConsistency(p, vRank, v, u)
	if u.Err || v.Err {
		return
	}

	// Line 6: UpdateMessages both ways (Protocol 13).
	updateMessages(p, uRank, u, v, su)
	updateMessages(p, vRank, v, u, sv)

	// Line 7: BalanceLoad (Protocol 14).
	if !p.noBalance {
		balanceLoad(g, u, v, sc)
	}
}

// duplicateMessage reports whether u and v hold two copies of the same
// (rank, ID) message. From a correct initialization every message has
// exactly one holder, so a duplicate proves an inconsistent start.
func duplicateMessage(g int32, u, v *State, sc *Scratch) bool {
	sc.mark(2 * g * g)
	for idx := int32(0); idx < g; idx++ {
		if int(idx) >= len(u.Msgs) || int(idx) >= len(v.Msgs) {
			continue
		}
		tag := sc.epoch*int64(g) + int64(idx) + 1
		for _, m := range u.Msgs[idx] {
			if m.id >= 1 && int(m.id) <= len(sc.seen) {
				sc.seen[m.id-1] = tag
			}
		}
		for _, m := range v.Msgs[idx] {
			if m.id >= 1 && int(m.id) <= len(sc.seen) && sc.seen[m.id-1] == tag {
				return true
			}
		}
	}
	return false
}

// checkConsistency is CheckMessageConsistency(u, v) (Protocol 12): any
// message held by v and governed by u's rank must match u's observation.
func checkConsistency(p *Params, uRank int32, u, v *State) {
	idx := p.pt.RankIdx(uRank)
	if idx < 0 || int(idx) >= len(v.Msgs) {
		return
	}
	for _, m := range v.Msgs[idx] {
		if m.id < 1 || int(m.id) > len(u.Obs) {
			u.Err, v.Err = true, true // malformed ID: adversarial state
			return
		}
		if m.content != u.Obs[m.id-1] {
			u.Err, v.Err = true, true
			return
		}
	}
}

// updateMessages is UpdateMessages(u, v) (Protocol 13): u ticks its refresh
// counter, possibly resamples its signature (rewriting its own held
// messages), and always restamps the messages v carries for u's rank.
func updateMessages(p *Params, uRank int32, u, v *State, su coin.Sampler) {
	g := p.pt.SizeOf(uRank)
	idx := p.pt.RankIdx(uRank)
	u.Counter++
	if u.Counter >= p.RefreshPeriod(g) {
		u.Signature = int32(su(int(p.sigSpace(g)))) + 1
		u.Counter = 1
		if int(idx) < len(u.Msgs) {
			restamp(u.Msgs[idx], u.Signature, u.Obs)
		}
	}
	if int(idx) < len(v.Msgs) {
		restamp(v.Msgs[idx], u.Signature, u.Obs)
	}
}

// restamp rewrites every message of row to the governor's current signature,
// mirroring each write into the governor's observations. A row whose contents
// actually changed is re-sorted to restore the (content, id) row invariant
// that balanceLoad's linear merge relies on (uniform content, so the sort
// reduces to an ID sort).
func restamp(row []msg, sig int32, obs []int32) {
	changed := false
	for i := range row {
		m := &row[i]
		if m.content != sig {
			m.content = sig
			changed = true
		}
		if m.id >= 1 && int(m.id) <= len(obs) {
			obs[m.id-1] = sig
		}
	}
	if changed {
		sortMsgs(row)
	}
}

// balanceLoad is BalanceLoad(u, v) (Protocol 14): for every (rank, content)
// class, the union of the pair's messages is split between them — ordered by
// ID, first half / second half — with the ceil half going to whichever agent
// has accumulated fewer messages so far. The exchange is deterministic; no
// randomness is consumed. sc.merged holds the union, so the halves are
// appended straight into the agents' own rows; sc.spill receives the share of
// an agent that has no row idx (adversarial states only), which is dropped.
func balanceLoad(g int32, u, v *State, sc *Scratch) {
	uCount, vCount := 0, 0
	for idx := int32(0); idx < g; idx++ {
		var uRow, vRow []msg
		uHas, vHas := int(idx) < len(u.Msgs), int(idx) < len(v.Msgs)
		if uHas {
			uRow = u.Msgs[idx]
		}
		if vHas {
			vRow = v.Msgs[idx]
		}
		if len(uRow)+len(vRow) == 0 {
			continue
		}
		mergeRows(sc, uRow, vRow)
		uOut, vOut := sc.spill[:0], sc.spill[:0]
		if uHas {
			uOut = uRow[:0]
		}
		if vHas {
			vOut = vRow[:0]
		}
		for lo := 0; lo < len(sc.merged); {
			hi := lo + 1
			for hi < len(sc.merged) && sc.merged[hi].content == sc.merged[lo].content {
				hi++
			}
			run := sc.merged[lo:hi]
			floorHalf := run[:len(run)/2]
			ceilHalf := run[len(run)/2:]
			if uCount > vCount {
				uOut = append(uOut, floorHalf...)
				vOut = append(vOut, ceilHalf...)
				uCount += len(floorHalf)
				vCount += len(ceilHalf)
			} else {
				vOut = append(vOut, floorHalf...)
				uOut = append(uOut, ceilHalf...)
				vCount += len(floorHalf)
				uCount += len(ceilHalf)
			}
			lo = hi
		}
		if uHas {
			u.Msgs[idx] = uOut
		} else {
			sc.spill = uOut
		}
		if vHas {
			v.Msgs[idx] = vOut
		} else {
			sc.spill = vOut
		}
	}
}

// sortMsgs sorts ms by (content, id).
func sortMsgs(ms []msg) {
	slices.SortFunc(ms, func(a, b msg) int {
		if a.content != b.content {
			return int(a.content) - int(b.content)
		}
		return int(a.id) - int(b.id)
	})
}

// msgLess is the (content, id) order of sortMsgs.
func msgLess(a, b msg) bool {
	if a.content != b.content {
		return a.content < b.content
	}
	return a.id < b.id
}

// msgsSorted reports whether ms is sorted by (content, id). Clean executions
// maintain this as a row invariant (InitState, restamp and balanceLoad all
// emit sorted rows); only adversarially constructed states violate it.
func msgsSorted(ms []msg) bool {
	for i := 1; i < len(ms); i++ {
		if msgLess(ms[i], ms[i-1]) {
			return false
		}
	}
	return true
}

// mergeRows fills sc.merged with the (content, id)-sorted union of uRow and
// vRow: a linear merge when both rows honor the row invariant, and a sort of
// the concatenation otherwise (adversarial states only). The result is
// exactly what sorting the concatenation would produce — ties are identical
// msg values, so run order is preserved bit-for-bit.
func mergeRows(sc *Scratch, uRow, vRow []msg) {
	merged, ok := mergeSorted(sc.merged[:0], uRow, vRow)
	if !ok {
		merged = append(append(merged[:0], uRow...), vRow...)
		sortMsgs(merged)
	}
	sc.merged = merged
}

// mergeSorted appends the two-way merge of uRow and vRow to dst, checking
// each row's (content, id) order against the row's previous element as it
// goes, so the row invariant costs no separate pass. It reports false at the
// first inversion, leaving dst partly filled.
func mergeSorted(dst, uRow, vRow []msg) ([]msg, bool) {
	i, j := 0, 0
	for i < len(uRow) && j < len(vRow) {
		if msgLess(vRow[j], uRow[i]) {
			if j > 0 && msgLess(vRow[j], vRow[j-1]) {
				return dst, false
			}
			dst = append(dst, vRow[j])
			j++
		} else {
			if i > 0 && msgLess(uRow[i], uRow[i-1]) {
				return dst, false
			}
			dst = append(dst, uRow[i])
			i++
		}
	}
	if !msgsSorted(uRow[max(i-1, 0):]) || !msgsSorted(vRow[max(j-1, 0):]) {
		return dst, false
	}
	return append(append(dst, uRow[i:]...), vRow[j:]...), true
}

// CheckStateRestriction verifies the definitional restriction of §5.1: if an
// agent of rank i holds its own message (i, j), the message content must
// equal Obs[j-1]. Adversarial initializations must respect it (the paper
// excludes violating states from the state space by definition).
func CheckStateRestriction(p *Params, rank int32, s *State) error {
	if s.Err {
		return nil
	}
	idx := p.pt.RankIdx(rank)
	if idx < 0 || int(idx) >= len(s.Msgs) {
		return nil
	}
	for _, m := range s.Msgs[idx] {
		if m.id < 1 || int(m.id) > len(s.Obs) {
			return fmt.Errorf("detect: own message ID %d outside observation space", m.id)
		}
		if s.Obs[m.id-1] != m.content {
			return fmt.Errorf("detect: own message (%d,%d) content %d != observation %d",
				rank, m.id, m.content, s.Obs[m.id-1])
		}
	}
	return nil
}
