package importguard_test

import (
	"os"
	"testing"

	"sspp/internal/analyzers/analysistest"
	"sspp/internal/analyzers/importguard"
)

func TestImportGuard(t *testing.T) {
	analysistest.Run(t, importguard.Analyzer,
		"sspp",
		"sspp/internal/rng",
		"sspp/internal/sim",
		"sspp/internal/trials",
		"sspp/internal/experiments",
		"sspp/examples/good",
		"sspp/examples/bad",
		"sspp/cmd/benchtab",
		"sspp/cmd/rogue",
	)
}

// TestParityWithCheckImportsScript is the transition contract for deleting
// scripts/check-imports.sh: every violation class the shell script caught
// is covered by an importguard fixture, and the script itself is gone.
//
//	script rule                                  fixture
//	examples/ importing sspp/internal/...   ->   sspp/examples/bad
//	cmd/ internal import outside allowlist  ->   sspp/cmd/rogue, sspp/cmd/benchtab
//	cmd allowlist entries stay legal        ->   sspp/cmd/benchtab (experiments, trials)
//
// The analyzer additionally enforces layering rules (engine purity, rng
// leaf, species encapsulation) the script never could.
func TestParityWithCheckImportsScript(t *testing.T) {
	if _, err := os.Stat("../../../scripts/check-imports.sh"); err == nil {
		t.Errorf("scripts/check-imports.sh still exists; importguard replaced it — delete the script and its CI step")
	}
	// The fixture wants asserted by TestImportGuard are the parity proof;
	// this test pins the script's allowlist table against the analyzer's.
	for pkg, want := range map[string][]string{
		"sspp/cmd/benchtab":    {"sspp/internal/experiments", "sspp/internal/trials"},
		"sspp/cmd/statespace":  {"sspp/internal/core"},
		"sspp/cmd/verifyspace": {"sspp/internal/modelcheck"},
	} {
		got := importguard.CmdAllowlist(pkg)
		if len(got) != len(want) {
			t.Errorf("cmd allowlist for %s = %v, want %v (check-imports.sh parity)", pkg, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("cmd allowlist for %s = %v, want %v (check-imports.sh parity)", pkg, got, want)
			}
		}
	}
}
