package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicCounter proves the counter invariant behind ProgressSnapshot: the
// live evaluated/feasible/prescreened/cache-hit counters are written by
// every worker goroutine and read concurrently by progress tickers and
// signal handlers, so a single plain load or store on one of them is a data
// race that -race only catches when the schedule cooperates. Fields carrying a //calculonvet:counter annotation (on the
// field or on the owning struct's doc) must therefore be touched
// exclusively through sync/atomic:
//
//   - fields of a sync/atomic value type (atomic.Int64 & friends) may only
//     appear as the receiver of an atomic method call — never copied,
//     assigned, or address-escaped into non-atomic code;
//   - fields of a plain integer type may only appear as &f arguments to
//     sync/atomic package functions — mixed plain/atomic access is exactly
//     the bug class the annotation exists to ban.
var AtomicCounter = &Analyzer{
	Name: "atomiccounter",
	Doc:  "//calculonvet:counter fields may only be accessed via sync/atomic, never mixed plain/atomic",
	Run:  runAtomicCounter,
}

// atomicMethods are the sync/atomic value-type methods that constitute
// legitimate access.
var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

func runAtomicCounter(pass *Pass) error {
	counters := collectCounterFields(pass)
	if len(counters) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || !counters[obj] {
				return true
			}
			if !atomicUse(pass, sel, stack) {
				pass.Reportf(sel.Pos(), "counter field %s (//calculonvet:counter) must be accessed via sync/atomic only", obj.Name())
			}
			return true
		})
	}
	return nil
}

// collectCounterFields gathers the field objects annotated as counters in
// this package, either per field or via the struct's doc comment.
func collectCounterFields(pass *Pass) map[types.Object]bool {
	counters := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				structWide := hasDirective(gd.Doc, "counter") || hasDirective(ts.Doc, "counter") || hasDirective(ts.Comment, "counter")
				for _, field := range st.Fields.List {
					if !structWide && !hasDirective(field.Doc, "counter") && !hasDirective(field.Comment, "counter") {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.Info.Defs[name]; obj != nil {
							counters[obj] = true
						}
					}
				}
			}
		}
	}
	return counters
}

// atomicUse reports whether the selector access to a counter field is one
// of the sanctioned shapes.
func atomicUse(pass *Pass, sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	if isAtomicValueType(pass.Info.TypeOf(sel)) {
		// v.field.Method(...): the parent is the method selector, whose own
		// parent must be the call.
		m, ok := parent.(*ast.SelectorExpr)
		if !ok || !atomicMethods[m.Sel.Name] || len(stack) < 2 {
			return false
		}
		call, ok := stack[len(stack)-2].(*ast.CallExpr)
		return ok && call.Fun == m
	}
	// Plain integer counter: must appear as &field passed to atomic.F(...).
	addr, ok := parent.(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND || len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := calleeObj(pass.Info, call).(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
}

// isAtomicValueType reports whether t is one of sync/atomic's value types.
func isAtomicValueType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
