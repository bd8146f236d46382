package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"sspp"
)

// seedCalls are the calls whose first argument is a seed.
var seedCalls = map[string]bool{
	"rng.New": true, "sspp.SchedulerSeed": true, "sspp.NewUniform": true,
	"sspp.NewZipf": true, "core.WithSeed": true,
}

// arith returns the first arithmetic binary expression inside e, or nil.
func arith(e ast.Expr) *ast.BinaryExpr {
	var found *ast.BinaryExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && found == nil && isArith(b.Op) {
			found = b
		}
		return found == nil
	})
	return found
}

func isArith(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM, token.AND,
		token.OR, token.XOR, token.SHL, token.SHR, token.AND_NOT:
		return true
	}
	return false
}

// isSeedField reports whether e names a Seed or BaseSeed field.
func isSeedField(e ast.Expr) bool {
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	return name == "Seed" || name == "BaseSeed"
}

// TestNoSeedArithmetic keeps the experiments on the one seed derivation
// (trials.Split): no seed is computed by arithmetic. It fails on an
// arithmetic expression used as the seed of rng.New, sspp.SchedulerSeed,
// sspp.NewUniform, sspp.NewZipf or core.WithSeed, as the value of a Seed or
// BaseSeed field, or with a BaseSeed field as an operand.
func TestNoSeedArithmetic(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[token.Pos]string{}
	flag := func(b *ast.BinaryExpr, what string) {
		if b != nil {
			sites[b.Pos()] = what
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						break
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok {
						break
					}
					name := x.Name + "." + sel.Sel.Name
					if seedCalls[name] && len(n.Args) > 0 {
						flag(arith(n.Args[0]), "seed of "+name)
					}
				case *ast.KeyValueExpr:
					if isSeedField(n.Key) {
						flag(arith(n.Value), "seed field value")
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i < len(n.Rhs) && isSeedField(lhs) {
							flag(arith(n.Rhs[i]), "seed field value")
						}
					}
				case *ast.BinaryExpr:
					if isArith(n.Op) && (isSeedField(n.X) || isSeedField(n.Y)) {
						flag(n, "arithmetic on a seed field")
					}
				}
				return true
			})
		}
	}
	if len(sites) == 0 {
		return
	}
	var lines []string
	for pos, what := range sites {
		lines = append(lines, fmt.Sprintf("%s: %s", fset.Position(pos), what))
	}
	slices.Sort(lines)
	t.Errorf("%d seed-arithmetic sites; take the trial's streams (trials.Split) instead:\n%s",
		len(lines), strings.Join(lines, "\n"))
}

// TestT13HoldingReplaysEnsembleTrials checks that T13's holding follow-up
// re-runs exactly the trials its Ensemble cell summarized: each seed's
// convergence run stops at the cell's sample, bit for bit.
func TestT13HoldingReplaysEnsembleTrials(t *testing.T) {
	cfg := Config{Quick: true, Seeds: 4, BaseSeed: 3, Workers: 2}
	for _, factor := range []float64{4, 16} {
		g := t13Grid(cfg, factor)
		ens, err := sspp.NewEnsemble(g, sspp.Workers(cfg.Workers))
		if err != nil {
			t.Fatal(err)
		}
		cell := ens.Run().Cells[0]
		if cell.Recovered == 0 {
			t.Fatalf("τ=%d: no converged trial to compare", g.Tau)
		}
		got := []float64{}
		fails := 0
		for _, o := range t13Holding(cfg, g) {
			if !o.converged.Stabilized {
				fails++
				continue
			}
			got = append(got, float64(o.converged.StabilizedAt))
		}
		if !slices.Equal(got, cell.Samples) || fails != cell.Failures {
			t.Fatalf("τ=%d: follow-up converged at %v (%d fails), cell samples %v (%d fails)",
				g.Tau, got, fails, cell.Samples, cell.Failures)
		}
	}
}
