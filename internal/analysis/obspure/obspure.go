// Package obspure defines an analyzer that proves Observer
// implementations never write through *sim.State, and that
// StepInterceptor implementations only mutate it through the sanctioned
// method API — and only in PreStep.
//
// The kernel hands both hook families a pointer to its live State. The
// contracts they rely on are documented but were unchecked until now:
//
//   - sim.Observer (OnStep/OnMove/OnReject) is strictly read-only. The
//     InvariantMonitor's zero-violation runs and the step traces are
//     evidence about the engine only if attaching an observer cannot
//     change the run. Observers also must not retain the State or the
//     delivered slice past the callback (the kernel reuses both).
//   - sim.StepInterceptor (PreStep/StopEarly/OnDeliver/OnIdleLimit) is
//     the engine's trusted half: PreStep applies crash transitions by
//     mutating possession through the sanctioned methods (tokenset
//     mutators plus State.InvalidateCounts). Structural writes — storing
//     to a State field or replacing a possession-slice element — bypass
//     the count-cache discipline and are forbidden everywhere; mutating
//     method calls are forbidden outside PreStep (StopEarly and
//     OnIdleLimit are decision hooks, not transition hooks).
//
// The analyzer locates the sim package among the checked package's
// imports (the -sim flag names its import path) and checks every method
// of every type implementing either interface.
package obspure

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

const doc = `prove Observer hooks read-only and StepInterceptor mutation sanctioned

For every type implementing sim.Observer, the OnStep/OnMove/OnReject
bodies must treat their *sim.State as read-only: no field stores, no
possession-element writes, no calls to mutating State methods (Deliver,
InvalidateCounts) or token-set mutators reached through the state, no
passing the State pointer to another function, and no storing the State
or the delivered slice anywhere that outlives the callback.

For every type implementing sim.StepInterceptor, structural writes
through the State (field stores, possession-element replacement) are
forbidden in all four hooks, and mutating method calls are forbidden
outside PreStep — the one hook sanctioned to apply transitions.

The -sim flag names the import path of the package defining State,
Observer, and StepInterceptor (default ocd/internal/sim). The -readonly
flag extends the list of State methods the analyzer accepts as pure.`

// Analyzer is the obspure go/analysis entry point.
var Analyzer = &analysis.Analyzer{
	Name:     "obspure",
	Doc:      doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	simFlag      string
	readonlyFlag string
)

// defaultReadonly are the State methods an observer may call: accessors
// that cannot change the run. HaveCounts and Holders are included
// deliberately — each materializes a lazily-computed cache, but the cached
// values are identical whether or not an observer forced the computation,
// so attaching the observer cannot perturb the schedule.
var defaultReadonly = []string{"Missing", "Lacking", "MissingInto", "LackingInto", "HaveCounts", "Holders"}

func init() {
	Analyzer.Flags.StringVar(&simFlag, "sim", "ocd/internal/sim",
		"import path of the package defining State, Observer, and StepInterceptor")
	Analyzer.Flags.StringVar(&readonlyFlag, "readonly", strings.Join(defaultReadonly, ","),
		"comma-separated State methods accepted as read-only")
}

// observerMethods and interceptorMethods are the hook names whose bodies
// are checked (only methods that receive a *State matter; the others
// cannot touch it).
var observerMethods = map[string]bool{"OnStep": true, "OnMove": true, "OnReject": true}
var interceptorMethods = map[string]bool{"PreStep": true, "StopEarly": true, "OnDeliver": true, "OnIdleLimit": true}

// setMutators are method names that mutate their receiver on the
// repository's token-set type (and any set-like value reached through the
// State). Calling one on a possession set is a state write.
var setMutators = map[string]bool{
	"Add": true, "Remove": true, "Clear": true, "Fill": true,
	"CopyFrom": true, "UnionWith": true, "IntersectWith": true,
	"DifferenceWith": true, "SetDifference": true, "SetIntersection": true,
	"AddRange": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	sim := findSimPackage(pass)
	if sim == nil {
		return nil, nil
	}
	stateType, observer, interceptor := lookupContracts(sim)
	if stateType == nil || (observer == nil && interceptor == nil) {
		return nil, nil
	}
	readonly := make(map[string]bool)
	for _, name := range strings.Split(readonlyFlag, ",") {
		if name = strings.TrimSpace(name); name != "" {
			readonly[name] = true
		}
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Recv == nil || fd.Body == nil {
			return
		}
		obj := pass.TypesInfo.Defs[fd.Name]
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return
		}
		rt := recv.Type()
		isObserver := observer != nil && types.Implements(rt, observer) && observerMethods[fd.Name.Name]
		isInterceptor := interceptor != nil && types.Implements(rt, interceptor) && interceptorMethods[fd.Name.Name]
		if !isObserver && !isInterceptor {
			return
		}
		mode := checkMode{
			observer:        isObserver,
			mutatorsAllowed: isInterceptor && !isObserver && fd.Name.Name == "PreStep",
		}
		checkHook(pass, fd, stateType, readonly, mode)
	})
	return nil, nil
}

type checkMode struct {
	// observer selects the strict read-only rules; otherwise the
	// interceptor rules (structural writes only) apply.
	observer bool
	// mutatorsAllowed permits sanctioned mutating method calls (PreStep).
	mutatorsAllowed bool
}

// findSimPackage locates the configured sim package: the checked package
// itself or one of its direct imports.
func findSimPackage(pass *analysis.Pass) *types.Package {
	if pass.Pkg.Path() == simFlag {
		return pass.Pkg
	}
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() == simFlag {
			return imp
		}
	}
	return nil
}

// lookupContracts resolves State, Observer, and StepInterceptor from the
// sim package's scope.
func lookupContracts(sim *types.Package) (state types.Type, observer, interceptor *types.Interface) {
	if obj := sim.Scope().Lookup("State"); obj != nil {
		state = obj.Type()
	}
	if obj := sim.Scope().Lookup("Observer"); obj != nil {
		observer, _ = obj.Type().Underlying().(*types.Interface)
	}
	if obj := sim.Scope().Lookup("StepInterceptor"); obj != nil {
		interceptor, _ = obj.Type().Underlying().(*types.Interface)
	}
	return state, observer, interceptor
}

// checkHook enforces the mode's rules on one hook body.
func checkHook(pass *analysis.Pass, fd *ast.FuncDecl, stateType types.Type,
	readonly map[string]bool, mode checkMode) {

	// The state parameters (usually one) and, for OnStep, the delivered
	// slice parameter.
	stateParams := make(map[types.Object]bool)
	sliceParams := make(map[types.Object]bool)
	for _, field := range fd.Type.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if ptr, ok := t.(*types.Pointer); ok && types.Identical(ptr.Elem(), stateType) {
				stateParams[obj] = true
			} else if _, ok := t.Underlying().(*types.Slice); ok && mode.observer {
				sliceParams[obj] = true
			}
		}
	}
	if len(stateParams) == 0 {
		return
	}

	// Taint: locals derived from the state (p := st.Possess[v], range
	// values over st.Possess) count as state-rooted.
	tainted := make(map[types.Object]bool)

	var stateRooted func(e ast.Expr) bool
	stateRooted = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = pass.TypesInfo.Defs[e]
			}
			return obj != nil && (stateParams[obj] || tainted[obj])
		case *ast.SelectorExpr:
			return stateRooted(e.X)
		case *ast.IndexExpr:
			return stateRooted(e.X)
		case *ast.SliceExpr:
			return stateRooted(e.X)
		case *ast.ParenExpr:
			return stateRooted(e.X)
		case *ast.StarExpr:
			return stateRooted(e.X)
		case *ast.CallExpr:
			// Results of calls are fresh values (Missing returns a new
			// set); they do not alias the state. The calls themselves are
			// vetted separately.
			return false
		}
		return false
	}
	isStateIdent := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.TypesInfo.Uses[id]
		return obj != nil && stateParams[obj]
	}

	// Pass 1: propagate taint (st.Possess elements held in locals).
	for changed := true; changed; {
		changed = false
		mark := func(id *ast.Ident, rooted bool) {
			if !rooted {
				return
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil || stateParams[obj] || tainted[obj] {
				return
			}
			tainted[obj] = true
			changed = true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						mark(id, stateRooted(n.Rhs[i]))
					}
				}
			case *ast.RangeStmt:
				if stateRooted(n.X) {
					if id, ok := n.Value.(*ast.Ident); ok && id != nil {
						mark(id, true)
					}
				}
			}
			return true
		})
	}

	hook := fd.Name.Name
	// Pass 2: report.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch l := lhs.(type) {
				case *ast.SelectorExpr:
					if stateRooted(l.X) {
						pass.Reportf(n.Pos(), "%s writes through *sim.State (field store %s); the hook contract is read-only, mutation must go through the sanctioned State API", hook, l.Sel.Name)
					}
				case *ast.IndexExpr:
					if stateRooted(l.X) {
						pass.Reportf(n.Pos(), "%s writes through *sim.State (element store); replacing a possession entry bypasses the count-cache discipline", hook)
					}
				case *ast.StarExpr:
					if stateRooted(l.X) {
						pass.Reportf(n.Pos(), "%s writes through *sim.State (pointer store)", hook)
					}
				}
			}
			// Retention: storing the state or a state-rooted value (or the
			// delivered slice) into anything that outlives the callback.
			if mode.observer && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					rhsRetains := stateRooted(n.Rhs[i]) || retainsSliceParam(pass, sliceParams, n.Rhs[i])
					if !rhsRetains {
						continue
					}
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						pass.Reportf(n.Pos(), "%s retains state or the delivered slice past the callback; the kernel reuses both", hook)
					}
				}
			}
		case *ast.IncDecStmt:
			switch x := n.X.(type) {
			case *ast.SelectorExpr:
				if stateRooted(x.X) {
					pass.Reportf(n.Pos(), "%s writes through *sim.State (field store %s)", hook, x.Sel.Name)
				}
			case *ast.IndexExpr:
				if stateRooted(x.X) {
					pass.Reportf(n.Pos(), "%s writes through *sim.State (element store)", hook)
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok && stateRooted(sel.X) {
				name := sel.Sel.Name
				if isStateIdent(sel.X) {
					// A method on the State itself: the read-only list or bust.
					if !readonly[name] && (mode.observer || !mode.mutatorsAllowed) {
						pass.Reportf(n.Pos(), "%s calls State.%s, which the analyzer cannot prove read-only; observers and non-PreStep interceptor hooks must not mutate the state", hook, name)
					}
				} else if setMutators[name] && (mode.observer || !mode.mutatorsAllowed) {
					pass.Reportf(n.Pos(), "%s mutates state through %s on a possession set reached from *sim.State", hook, name)
				}
			}
			if mode.observer {
				for _, arg := range n.Args {
					if isStateIdent(arg) {
						pass.Reportf(arg.Pos(), "%s passes *sim.State to a callee the analyzer cannot prove read-only", hook)
					}
				}
			}
		case *ast.GoStmt:
			if mode.observer {
				for _, arg := range n.Call.Args {
					if stateRooted(arg) {
						pass.Reportf(arg.Pos(), "%s hands state to a goroutine; the kernel mutates it concurrently after the callback", hook)
					}
				}
			}
		}
		return true
	})
}

// retainsSliceParam reports whether e is (a reslice of) one of the hook's
// slice parameters — for OnStep, the delivered step the kernel reuses.
func retainsSliceParam(pass *analysis.Pass, sliceParams map[types.Object]bool, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && sliceParams[obj]
	case *ast.SliceExpr:
		return retainsSliceParam(pass, sliceParams, e.X)
	case *ast.ParenExpr:
		return retainsSliceParam(pass, sliceParams, e.X)
	}
	return false
}
