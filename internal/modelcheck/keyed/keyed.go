// Package keyed model-checks internal/baseline's keyed baselines through
// their own species form. It is not part of internal/modelcheck because
// internal/baseline reaches internal/core, whose tests import modelcheck.
package keyed

import (
	"fmt"

	"sspp/internal/baseline"
	"sspp/internal/modelcheck"
)

// CheckCIW checks CIW on n ∈ [2, 12] agents over every multiset of ranks in
// [1, n] (1 352 078 at n = 12). Its safe set, the permutations, is one
// multiset, which must be silent and reachable from every configuration.
func CheckCIW(n int) (modelcheck.CountReport, error) {
	if n < 2 || n > 12 {
		return modelcheck.CountReport{}, fmt.Errorf("keyed: CIW analysis supports n in [2, 12], got %d", n)
	}
	m := baseline.NewCIW(n).Compact()
	return modelcheck.CheckCounts(m, n, 1, uint64(n), m.SafeSet)
}
