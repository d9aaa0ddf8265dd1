// Package lint hosts the edsvet analyzers: mechanical enforcement of
// the invariants the engine-equivalence story rests on but no compiler
// checks. See CONTRIBUTING.md for the invariant catalogue and
// cmd/edsvet for the driver.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"eds/internal/lint/analysis"
)

// Analyzers returns the full edsvet suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AlgDeterminism,
		OutboxAlias,
		ArenaAlias,
		RoundCtx,
	}
}

// simPackage returns the type-checked eds/internal/sim package as seen
// from pkg — pkg itself when analyzing the sim package, otherwise the
// direct import — or nil when pkg does not touch the simulation layer.
func simPackage(pkg *types.Package) *types.Package {
	if strings.HasSuffix(pkg.Path(), "internal/sim") {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if strings.HasSuffix(imp.Path(), "internal/sim") {
			return imp
		}
	}
	return nil
}

// simInterface looks up a named interface (e.g. "Node") in the sim
// package's scope.
func simInterface(sim *types.Package, name string) *types.Interface {
	obj := sim.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// simNamedType looks up a named type (e.g. "Message", "Result") in the
// sim package's scope.
func simNamedType(sim *types.Package, name string) types.Type {
	obj, ok := sim.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	return obj.Type()
}

// implementsEither reports whether T or *T implements iface.
func implementsEither(T types.Type, iface *types.Interface) bool {
	if iface == nil {
		return false
	}
	if types.Implements(T, iface) {
		return true
	}
	if _, isPtr := T.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(T), iface)
	}
	return false
}

// isSliceOf reports whether t is a slice whose element type is
// identical to elem.
func isSliceOf(t, elem types.Type) bool {
	s, ok := t.(*types.Slice)
	return ok && elem != nil && types.Identical(s.Elem(), elem)
}

// calleeObject resolves the called function or method of a call
// expression, or nil for calls through function values and builtins.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// funcScopeContains reports whether obj is declared inside the function
// node fn (body or parameter list), i.e. the object does not outlive
// one call of fn.
func funcScopeContains(fn ast.Node, obj types.Object) bool {
	return obj != nil && obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End()
}
