// Package importguard is the compiled successor of scripts/check-imports.sh
// plus the internal layering rules the shell script could not express. One
// rule set, machine-checked on every package:
//
//  1. examples/ are demos of the public API: no sspp/internal imports, ever.
//  2. cmd/ carries an explicit allowlist for reproduction-harness binaries
//     whose whole job is driving one internal subsystem; anything not in
//     the table uses the public sspp facade.
//  3. internal/sim is the protocol-agnostic engine: it may import only
//     internal/rng and internal/graph from this module — never a concrete
//     protocol package (core, baseline, species, …).
//  4. internal/rng is the determinism root: it imports nothing from the
//     module, so every other package can depend on it without cycles and
//     its streams cannot be influenced from above.
//  5. internal/species' sampler internals stay encapsulated: only the
//     backend facade (the root package) and internal/experiments may
//     import it; protocols reach the species engine through the
//     sim.Compactable capability instead.
//
// Extend the tables deliberately, never casually — each entry is a
// documented hole in the layering.
package importguard

import (
	"strconv"
	"strings"

	"sspp/internal/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "importguard",
	Doc:  "public-API and internal-layering import rules (successor of scripts/check-imports.sh)",
	Run:  run,
}

// cmdAllow maps cmd packages to the internal import prefixes their harness
// role justifies. These entries are the check-imports.sh allowlist carried
// over (less electsim, which renders its timeline itself and needs no
// internal package), plus ssppvet (which exists to analyze the internals)
// and sppd (whose HTTP layer is internal/serve).
var cmdAllow = map[string][]string{
	"sspp/cmd/benchtab":    {"sspp/internal/experiments", "sspp/internal/trials"},
	"sspp/cmd/statespace":  {"sspp/internal/core"},
	"sspp/cmd/verifyspace": {"sspp/internal/modelcheck"},
	"sspp/cmd/ssppvet":     {"sspp/internal/analyzers"},
	"sspp/cmd/sppd":        {"sspp/internal/serve"},
}

// simAllow is the engine layer's entire legal module import surface.
var simAllow = map[string]bool{
	"sspp/internal/rng":   true,
	"sspp/internal/graph": true,
}

// speciesImporters may import the count-based backend directly.
var speciesImporters = map[string]bool{
	"sspp":                      true,
	"sspp/internal/experiments": true,
}

func run(pass *analysis.Pass) error {
	pkgPath := pass.Pkg.Path()
	for _, f := range pass.Files {
		// Test files may cross layers freely: the equivalence and mirror
		// harnesses exist precisely to wire independent layers together.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			report := func(format string, args ...any) {
				pass.Reportf(imp.Pos(), format, args...)
			}
			switch {
			case strings.HasPrefix(pkgPath, "sspp/examples/"):
				if strings.HasPrefix(path, "sspp/internal/") {
					report("examples are public-API demos: import of %s must go through the root sspp package", path)
				}
			case strings.HasPrefix(pkgPath, "sspp/cmd/"):
				if strings.HasPrefix(path, "sspp/internal/") && !allowedFor(pkgPath, path) {
					report("%s imports %s outside the cmd allowlist; use the public sspp API or extend the importguard table deliberately", pkgPath, path)
				}
			case pkgPath == "sspp/internal/sim" || strings.HasSuffix(pkgPath, "/internal/sim"):
				if strings.HasPrefix(path, "sspp/") && !simAllow[path] {
					report("the engine layer internal/sim must stay protocol-agnostic: it may import only internal/rng and internal/graph, not %s", path)
				}
			case pkgPath == "sspp/internal/rng" || strings.HasSuffix(pkgPath, "/internal/rng"):
				if strings.HasPrefix(path, "sspp/") {
					report("internal/rng is the determinism root and must not import module packages (%s)", path)
				}
			}
			if path == "sspp/internal/species" && !speciesImporters[pkgPath] && pkgPath != "sspp/internal/species" {
				report("%s reaches into the species backend's internals; only the backend facade (sspp) and internal/experiments may import it — protocols use the sim.Compactable capability", pkgPath)
			}
		}
	}
	return nil
}

// CmdAllowlist exposes the cmd allowlist for the check-imports.sh parity
// test; the returned slice is the table entry itself, in table order.
func CmdAllowlist(pkg string) []string { return cmdAllow[pkg] }

func allowedFor(pkgPath, imp string) bool {
	for _, prefix := range cmdAllow[pkgPath] {
		if imp == prefix || strings.HasPrefix(imp, prefix+"/") {
			return true
		}
	}
	return false
}
