// Package randsource forbids weak randomness in the packages whose security
// argument depends on it.
//
// The Section V protocols are information-theoretically secure only if every
// mask is drawn from a cryptographically strong source, and the Paillier and
// DP mechanisms have the same requirement for their randomness. The Go
// compiler cannot tell math/rand from crypto/rand; this analyzer can:
//
//   - In the hard-audited packages (securesum, paillier, dp, transport) any
//     non-test import of math/rand or math/rand/v2 is a violation. There is
//     no escape hatch: these packages must use crypto/rand.
//   - In the deterministic-audited packages (consensus) math/rand is allowed
//     only for documented, protocol-public values (the shared landmark
//     points X_g, which carry no private information by construction). Every
//     such use site must carry a //ppml:deterministic-ok directive with a
//     justification.
//   - Everywhere audited, seeding any math/rand source from the clock is a
//     violation that no directive excuses: time seeds are both predictable
//     to an adversary and non-reproducible across learners, so they are
//     wrong under either reading.
//   - Seeded masking stretches one crypto/rand seed into per-round
//     masks with an AES-CTR PRG (securesum's pairPRG). That construction is
//     approved in the hard packages — an AES-based PRF keyed from
//     crypto/rand is exactly the computational-security assumption DESIGN.md
//     §10 documents — but building the cipher from clock-derived key
//     material (aes.NewCipher / cipher.NewCTR over a time.Now expression)
//     downgrades the PRG to a guessable stream and is flagged like any
//     other clock seed.
package randsource

import (
	"go/ast"
	"go/types"
	"strconv"

	"github.com/ppml-go/ppml/internal/analysis/framework"
)

// Analyzer is the randsource checker.
var Analyzer = &framework.Analyzer{
	Name: "randsource",
	Doc: "forbid math/rand in privacy-critical packages and clock seeding anywhere audited; " +
		"deterministic non-secret uses in consensus require //ppml:deterministic-ok",
	Run: run,
}

// DirectiveName is the escape hatch for documented deterministic uses.
const DirectiveName = "deterministic-ok"

// hardPaths must not import math/rand at all outside tests.
var hardPaths = []string{
	"internal/securesum",
	"internal/paillier",
	"internal/dp",
	"internal/transport",
}

// deterministicPaths may use math/rand only under a justified directive.
var deterministicPaths = []string{
	"internal/consensus",
}

var mathRandPaths = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func run(pass *framework.Pass) error {
	hard := framework.PathMatches(pass.Pkg.Path(), hardPaths...)
	det := framework.PathMatches(pass.Pkg.Path(), deterministicPaths...)
	if !hard && !det {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if hard {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if mathRandPaths[path] {
					pass.Reportf(imp.Pos(),
						"%s is forbidden in privacy-critical package %s: masks and key material must come from crypto/rand",
						path, pass.Pkg.Path())
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkTimeSeed(pass, n)
				if hard {
					checkCipherKey(pass, n)
				}
			case *ast.Ident:
				if det {
					checkDeterministicUse(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkDeterministicUse flags package-level math/rand functions and
// variables (rand.New, rand.NewSource, the global rand.Intn, ...) used
// without a justified directive. Method calls on an already-constructed
// *rand.Rand are not use sites: construction is the control point.
func checkDeterministicUse(pass *framework.Pass, id *ast.Ident) {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil || !mathRandPaths[obj.Pkg().Path()] {
		return
	}
	// Naming a math/rand type (e.g. a *rand.Rand in a signature) produces no
	// randomness, and neither do method calls on an already-built generator:
	// the construction sites (rand.New, rand.NewSource, the global functions)
	// are the control points.
	if _, ok := obj.(*types.TypeName); ok {
		return
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return
		}
	}
	if pass.Allowed(id.Pos(), DirectiveName) {
		return
	}
	pass.Reportf(id.Pos(),
		"math/rand use of %s.%s in %s requires a //ppml:%s directive documenting why the values are public and must be deterministic",
		obj.Pkg().Path(), obj.Name(), pass.Pkg.Path(), DirectiveName)
}

// checkTimeSeed flags rand.NewSource / rand.Seed / rand.New calls whose
// argument derives from the clock.
func checkTimeSeed(pass *framework.Pass, call *ast.CallExpr) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil || !mathRandPaths[callee.Pkg().Path()] {
		return
	}
	switch callee.Name() {
	case "NewSource", "Seed", "New", "NewPCG", "NewChaCha8":
	default:
		return
	}
	for _, arg := range call.Args {
		if tc := findTimeCall(pass, arg); tc != nil {
			pass.Reportf(call.Pos(),
				"math/rand source seeded from the clock: time seeds are predictable to an adversary and non-reproducible across learners")
			return
		}
	}
}

// checkCipherKey guards the approved PRG construction in the hard packages:
// aes.NewCipher / cipher.NewCTR keyed from crypto/rand material is the
// sanctioned seeded-mask expander, but the same calls over clock-derived key
// bytes turn every "random" mask into a guessable stream.
func checkCipherKey(pass *framework.Pass, call *ast.CallExpr) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	path, name := callee.Pkg().Path(), callee.Name()
	if !(path == "crypto/aes" && name == "NewCipher") &&
		!(path == "crypto/cipher" && (name == "NewCTR" || name == "NewGCM")) {
		return
	}
	for _, arg := range call.Args {
		if tc := findTimeCall(pass, arg); tc != nil {
			pass.Reportf(call.Pos(),
				"PRG key material derived from the clock: %s.%s must be keyed from crypto/rand (time is predictable to an adversary)",
				path, name)
			return
		}
	}
}

// findTimeCall returns a call to package time's Now (or a derived selector
// chain like time.Now().UnixNano()) inside expr, if any.
func findTimeCall(pass *framework.Pass, expr ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found != nil {
			return found == nil
		}
		if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "time" && fn.Name() == "Now" {
			found = call
			return false
		}
		return true
	})
	return found
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// conversions, and indirect calls through function values.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
