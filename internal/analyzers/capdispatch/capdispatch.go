// Package capdispatch keeps the DESIGN §7–§10 capability table the single
// source of truth for protocol capability dispatch. The engine and facade
// discover optional protocol capabilities (Ranker, SafeSetter, Compactable,
// Churnable, …) through the As* helpers in internal/sim/capability.go; a
// raw type assertion against a capability interface anywhere else is an
// ad-hoc dispatch site the capability table does not know about — exactly
// how a future backend silently diverges from the documented degradation
// rules.
//
// Type assertions and type switches against the capability interfaces are
// legal only in internal/sim/capability.go (where the helpers live), and an
// anonymous interface literal whose method-name set exactly matches a
// capability is the same dispatch with the name erased — flagged too.
// Narrower probes (a proper subset of a capability's methods) stay legal.
// Test files are exempt: asserting a capability is how tests state
// expectations about the table itself.
package capdispatch

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"sspp/internal/analyzers/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "capdispatch",
	Doc:  "capability interfaces may be type-asserted only in internal/sim/capability.go; use the sim.As* dispatch helpers",
	Run:  run,
}

// capabilities is the closed set of dispatch interfaces from
// internal/sim/capability.go. Adding a capability means adding it here, in
// capabilityMethods below, and adding its As* helper next to the interface —
// which is the point.
var capabilities = map[string]bool{
	"Ranker":            true,
	"LeaderIndexer":     true,
	"SafeSetter":        true,
	"Injectable":        true,
	"Snapshotter":       true,
	"Churnable":         true,
	"StateKeyer":        true,
	"Compactable":       true,
	"CountBased":        true,
	"ContinuousStepper": true,
	"Timed":             true,
}

// capabilityMethods maps each capability to its exact method-name set, in
// sorted order. An anonymous interface assertion whose method names equal a
// capability's set is the same ad-hoc dispatch with the name erased — the
// historical `interface{ LeaderIndex() (int, bool) }` in system.go predated
// sim.LeaderIndexer exactly this way. Proper subsets stay legal: probing one
// method of a wider capability (e.g. `interface{ CorrectRanking() bool }`)
// is a narrower question than capability dispatch.
var capabilityMethods = map[string][]string{
	"Ranker":            {"CorrectRanking", "RankOutput"},
	"LeaderIndexer":     {"LeaderIndex"},
	"SafeSetter":        {"InSafeSet"},
	"Injectable":        {"Inject", "InjectTransient"},
	"Snapshotter":       {"SnapshotInto"},
	"Churnable":         {"ChurnBounds", "Join", "Leave"},
	"StateKeyer":        {"StateKey"},
	"Compactable":       {"Compact"},
	"CountBased":        {"BindSource", "StepMany"},
	"ContinuousStepper": {"ParallelTime", "StartContinuous"},
	"Timed":             {"Time"},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		if filepath.Base(filename) == "capability.go" && strings.HasSuffix(pass.Pkg.Path(), "internal/sim") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil { // nil Type is the x.(type) of a type switch
					check(pass, n.Type)
				}
			case *ast.TypeSwitchStmt:
				for _, clause := range n.Body.List {
					cc, ok := clause.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, texpr := range cc.List {
						check(pass, texpr)
					}
				}
			}
			return true
		})
	}
	return nil
}

// check reports texpr when it names a capability interface defined in the
// internal/sim package, or is an anonymous interface whose method-name set
// exactly matches one of the capabilities.
func check(pass *analysis.Pass, texpr ast.Expr) {
	tv, ok := pass.TypesInfo.Types[texpr]
	if !ok || tv.Type == nil {
		return
	}
	switch t := tv.Type.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil || !capabilities[obj.Name()] {
			return
		}
		if !strings.HasSuffix(obj.Pkg().Path(), "internal/sim") {
			return
		}
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			return
		}
		pass.Reportf(texpr.Pos(), "type assertion against capability interface sim.%s outside internal/sim/capability.go; dispatch through sim.As%s so the capability table stays the single source of truth", obj.Name(), obj.Name())
	case *types.Interface:
		if name := matchCapabilityShape(t); name != "" {
			pass.Reportf(texpr.Pos(), "anonymous interface assertion has the method set of capability sim.%s; dispatch through sim.As%s so the capability table stays the single source of truth", name, name)
		}
	}
}

// matchCapabilityShape returns the capability whose method-name set the
// interface equals exactly, or "".
func matchCapabilityShape(iface *types.Interface) string {
	names := make([]string, iface.NumMethods())
	for i := range names {
		names[i] = iface.Method(i).Name()
	}
	sort.Strings(names)
	for cap, methods := range capabilityMethods {
		if len(methods) != len(names) {
			continue
		}
		equal := true
		for i := range methods {
			if methods[i] != names[i] {
				equal = false
				break
			}
		}
		if equal {
			return cap
		}
	}
	return ""
}
