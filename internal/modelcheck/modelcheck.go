// Package modelcheck provides exhaustive verification of the repository's
// safety-critical state machines, complementing the randomized tests:
// instead of sampling schedules, it enumerates every schedule and every
// random draw, up to a configuration budget.
//
//   - Explore: breadth-first search over a nondeterministic machine. Its
//     machine for agent vectors is Pairwise (pairwise.go), over the draws
//     each interaction reads. Its layers check Lemma E.2 on
//     DetectCollision_r (no ⊤ from a correct initialization) and its dual,
//     the closure of StableVerify_r's safe configurations and, from
//     internal/core's tests, the closure of the composite safe set (Lemma
//     6.1).
//   - CheckCounts (counts.go): the count-vector explorer for deterministic
//     models in species form, run on their own React. Sub-package keyed
//     checks CIW with it: every configuration reaches the silent
//     permutations, which under the uniform scheduler is exactly
//     probabilistic self-stabilization.
package modelcheck

import "fmt"

// State is one configuration of a machine.
type State any

// Machine is a finite nondeterministic transition system. It hands each
// configuration to yield together with its canonical key: two
// configurations with equal keys must be semantically identical. The key is
// only valid during the call. yield reports whether it kept the
// configuration (its key was new); one it did not keep may be reused.
type Machine interface {
	// Initial yields the starting configurations.
	Initial(yield func(key []byte, s State) bool)
	// Successors yields every configuration reachable from s in one
	// transition (all scheduler choices × all random draws).
	Successors(s State, yield func(key []byte, s State) bool)
}

// Options bounds an exploration.
type Options struct {
	// MaxStates caps the number of distinct configurations explored; it
	// must be positive. When the cap is hit the exploration is truncated
	// and the report says so: the result is then a bounded guarantee.
	MaxStates int
}

// Report summarizes an exploration.
type Report struct {
	// Explored is the number of distinct configurations visited.
	Explored int
	// Truncated reports whether the state budget was exhausted before the
	// frontier emptied.
	Truncated bool
	// Violations is the number of explored configurations violating the
	// property.
	Violations int
	// FirstViolationDepth is the BFS depth of the first violation (-1 when
	// none was found).
	FirstViolationDepth int
	// MaxDepth is the deepest level fully or partially explored.
	MaxDepth int
}

// Explore runs a breadth-first search from the machine's initial states and
// classifies every visited state with bad (nil means no property, pure
// reachability). Successors are deduplicated as they are yielded, so a
// configuration seen before costs no key string and is not kept. The
// search stops when the frontier is empty, the state budget is reached, or
// — as an early exit — stopOnViolation is set and a bad state was found.
// A budget (opt.MaxStates) below 1 is a caller bug, and Explore panics.
func Explore(m Machine, bad func(State) bool, stopOnViolation bool, opt Options) Report {
	maxStates := opt.MaxStates
	if maxStates <= 0 {
		panic(fmt.Sprintf("modelcheck: MaxStates %d is not a positive budget", maxStates))
	}
	rep := Report{FirstViolationDepth: -1}
	seen := make(map[string]struct{})
	type node struct {
		s     State
		depth int
	}
	var queue []node
	depth := 0 // the depth of the configurations being yielded
	push := func(key []byte, s State) bool {
		if _, ok := seen[string(key)]; ok {
			return false
		}
		if len(seen) >= maxStates {
			rep.Truncated = true
			return false
		}
		seen[string(key)] = struct{}{}
		queue = append(queue, node{s: s, depth: depth})
		return true
	}
	m.Initial(push)
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		rep.Explored++
		if nd.depth > rep.MaxDepth {
			rep.MaxDepth = nd.depth
		}
		if bad != nil && bad(nd.s) {
			rep.Violations++
			if rep.FirstViolationDepth < 0 {
				rep.FirstViolationDepth = nd.depth
			}
			if stopOnViolation {
				return rep
			}
			continue // do not expand beyond a violation
		}
		depth = nd.depth + 1
		m.Successors(nd.s, push)
	}
	return rep
}
