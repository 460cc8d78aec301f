package summary

import "repro/internal/phpast"

// The local layer: one syntactic walk over one function body.
// Everything here is a function of the declaration alone (no other
// functions, no options), which is what lets a Set compute it on first
// lookup and share the result across a scan.

// localScan carries the walker state for one function body.
type localScan struct {
	sum *Summary
	// occurrence bookkeeping for DeadVars / MergeVars
	occs     map[string]int  // total occurrences per var
	deadOccs map[string]int  // occurrences that are plain-assign LHS
	condOccs map[string]int  // occurrences that are an entire if-cond/switch-subject
	declared map[string]bool // names in global/static declarations or params
}

// summarize walks one registered declaration's body and returns its
// facts.
func summarize(fn *phpast.Func) *Summary {
	params, body := fn.Decl.Params, fn.Decl.Body
	sum := &Summary{}
	sc := &localScan{
		sum:      sum,
		occs:     map[string]int{},
		deadOccs: map[string]int{},
		condOccs: map[string]int{},
		declared: map[string]bool{},
	}
	for _, p := range params {
		sc.declared[p.Name] = true
		switch {
		case p.ByRef:
			sc.escape("by-ref param")
		case p.Variadic:
			sc.escape("variadic param")
		}
	}
	if fn.Method {
		sc.escape("class method")
	}
	if len(params) > 64 {
		// No fact needs this bound any more; it stays so that every
		// function keeps its escape verdict and reason.
		sc.escape("too many params")
	}
	sc.stmts(body)
	sc.finishVars()
	// Returning sum rather than sc.sum keeps the scan's maps off the
	// heap: escape analysis would let every field of sc escape with it.
	return sum
}

func (sc *localScan) escape(reason string) {
	if !sc.sum.Escapes {
		sc.sum.Escapes = true
		sc.sum.EscapeReason = reason
	}
}

func (sc *localScan) stmts(list []phpast.Stmt) {
	for _, s := range list {
		sc.stmt(s)
	}
}

func (sc *localScan) stmt(s phpast.Stmt) {
	switch n := s.(type) {
	case nil, *phpast.Nop, *phpast.InlineHTML:
	case *phpast.FuncDecl, *phpast.ClassDecl:
		// Nested declarations are separate scopes, summarized on
		// their own; executing the declaration is a no-op.
	case *phpast.ExprStmt:
		sc.expr(n.X)
	case *phpast.Echo:
		sc.exprs(n.Args)
	case *phpast.Block:
		sc.stmts(n.Stmts)
	case *phpast.If:
		sc.condOccurrence(n.Cond)
		sc.expr(n.Cond)
		if n.Then != nil {
			sc.stmts(n.Then.Stmts)
		}
		sc.stmt(n.Else)
	case *phpast.While:
		sc.expr(n.Cond)
		if n.Body != nil {
			sc.stmts(n.Body.Stmts)
		}
	case *phpast.DoWhile:
		if n.Body != nil {
			sc.stmts(n.Body.Stmts)
		}
		sc.expr(n.Cond)
	case *phpast.For:
		sc.exprs(n.Init)
		sc.exprs(n.Cond)
		sc.exprs(n.Post)
		if n.Body != nil {
			sc.stmts(n.Body.Stmts)
		}
	case *phpast.Foreach:
		if n.ByRef {
			sc.escape("by-ref foreach")
		}
		sc.expr(n.Arr)
		if n.Key != nil {
			sc.assignTo(n.Key, false)
		}
		sc.assignTo(n.Val, false)
		if n.Body != nil {
			sc.stmts(n.Body.Stmts)
		}
	case *phpast.Switch:
		sc.condOccurrence(n.Subject)
		sc.expr(n.Subject)
		for _, c := range n.Cases {
			sc.expr(c.Cond)
			sc.stmts(c.Stmts)
		}
	case *phpast.Break, *phpast.Continue:
	case *phpast.Return:
		sc.expr(n.X)
	case *phpast.Global:
		sc.escape("global statement")
		for _, name := range n.Names {
			sc.declared[name] = true
		}
	case *phpast.StaticVars:
		sc.escape("static variables")
		for _, name := range n.Names {
			sc.declared[name] = true
		}
		sc.exprs(n.Inits)
	case *phpast.Unset:
		sc.exprs(n.Vars)
	case *phpast.Try:
		sc.escape("try/catch")
		if n.Body != nil {
			sc.stmts(n.Body.Stmts)
		}
		for _, c := range n.Catches {
			if c.Body != nil {
				sc.stmts(c.Body.Stmts)
			}
		}
		if n.Finally != nil {
			sc.stmts(n.Finally.Stmts)
		}
	case *phpast.Throw:
		sc.escape("throw")
		sc.expr(n.X)
	default:
		sc.escape("unsupported statement")
	}
}

func (sc *localScan) exprs(list []phpast.Expr) {
	for _, e := range list {
		sc.expr(e)
	}
}

func (sc *localScan) expr(e phpast.Expr) {
	switch n := e.(type) {
	case nil, *phpast.IntLit, *phpast.FloatLit, *phpast.StringLit, *phpast.BoolLit, *phpast.NullLit,
		*phpast.ConstFetch, *phpast.ClassConstFetch, *phpast.Name:
	case *phpast.InterpString:
		sc.exprs(n.Parts)
	case *phpast.Var:
		sc.occs[n.Name]++
	case *phpast.ArrayDim:
		sc.expr(n.Arr)
		sc.expr(n.Index)
	case *phpast.ArrayLit:
		for _, it := range n.Items {
			if it.ByRef {
				sc.escape("by-ref array item")
			}
			sc.expr(it.Key)
			sc.expr(it.Value)
		}
	case *phpast.ListExpr:
		sc.exprs(n.Items)
	case *phpast.Unary:
		sc.expr(n.X)
	case *phpast.Binary:
		sc.expr(n.L)
		sc.expr(n.R)
	case *phpast.Assign:
		if n.ByRef {
			sc.escape("by-ref assignment")
		}
		sc.expr(n.Value)
		sc.assignTo(n.Target, n.Op == "" && !n.ByRef)
	case *phpast.IncDec:
		// Counts as a read-modify-write use of the variable.
		sc.expr(n.X)
	case *phpast.Ternary:
		sc.expr(n.Cond)
		sc.expr(n.Then)
		sc.expr(n.Else)
	case *phpast.Cast:
		sc.expr(n.X)
	case *phpast.ErrorSuppress:
		sc.expr(n.X)
	case *phpast.Call:
		// Only the arguments are walked: a dynamic callee expression
		// escapes without counting as a variable occurrence.
		if name, ok := phpast.CalleeName(n); !ok {
			sc.escape("dynamic call")
		} else if name == "call_user_func" || name == "call_user_func_array" {
			sc.escape("call_user_func")
		}
		sc.exprs(n.Args)
	case *phpast.MethodCall:
		sc.escape("method call")
		sc.expr(n.Obj)
		sc.exprs(n.Args)
	case *phpast.StaticCall:
		sc.escape("static call")
		sc.exprs(n.Args)
	case *phpast.New:
		sc.escape("object construction")
		sc.exprs(n.Args)
	case *phpast.PropFetch:
		sc.escape("property access")
		sc.expr(n.Obj)
	case *phpast.StaticPropFetch:
		sc.escape("static property access")
	case *phpast.Isset:
		sc.exprs(n.Vars)
	case *phpast.Empty:
		sc.expr(n.X)
	case *phpast.Exit:
		sc.escape("exit")
		sc.expr(n.X)
	case *phpast.Print:
		sc.expr(n.X)
	case *phpast.Include:
		sc.escape("include")
		sc.expr(n.X)
	case *phpast.Closure:
		sc.escape("closure")
	default:
		sc.escape("unsupported expression")
	}
}

// assignTo walks an assignment target and maintains the dead-variable
// occurrence counts. plain is true for `=` without by-ref or a
// compound operator.
func (sc *localScan) assignTo(target phpast.Expr, plain bool) {
	switch t := target.(type) {
	case *phpast.Var:
		sc.occs[t.Name]++
		if plain {
			sc.deadOccs[t.Name]++
		}
	case *phpast.ArrayDim:
		sc.expr(t.Index)
		sc.assignTo(t.Arr, false)
	case *phpast.ListExpr:
		for _, it := range t.Items {
			sc.assignTo(it, false)
		}
	default:
		// Property/static-prop targets escape via expr's walk.
		sc.expr(target)
	}
}

// condOccurrence records that an expression position is an entire
// if-condition or switch-subject — the eligibility anchor for merge
// variables.
func (sc *localScan) condOccurrence(e phpast.Expr) {
	if v, ok := e.(*phpast.Var); ok {
		sc.condOccs[v.Name]++
	}
}

// finishVars computes the sorted DeadVars and MergeVars lists.
//
// A dead variable has at least one occurrence, every occurrence is a
// plain-assignment target, and it is not a formal, superglobal, or
// global/static declaration. A merge variable occurs exactly once,
// that occurrence is an entire if-condition or switch-subject, with
// the same exclusions.
func (sc *localScan) finishVars() {
	dead := map[string]bool{}
	merge := map[string]bool{}
	for name, total := range sc.occs {
		if sc.declared[name] || superglobals[name] {
			continue
		}
		if total > 0 && sc.deadOccs[name] == total {
			dead[name] = true
		}
		if total == 1 && sc.condOccs[name] == 1 {
			merge[name] = true
		}
	}
	sc.sum.DeadVars = sortedNames(dead)
	sc.sum.MergeVars = sortedNames(merge)
}
