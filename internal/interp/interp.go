// Package interp is UChecker's AST-based symbolic execution engine
// (Section III-B of the paper).
//
// Starting from the root selected by the locality analysis (a PHP file or
// a function), the interpreter recursively evaluates AST nodes against a
// heap graph G and a set of per-path environments ℰ, forking ℰ at
// conditionals, inlining user-function calls context-sensitively, and
// recording every invocation of a file-upload sink together with the
// per-path labels of its source and destination expressions.
//
// Faithful to the paper's stated limitations, loops are unrolled to a
// small bound rather than modeled precisely, and execution is guarded by
// path/object budgets — exceeding them aborts with ErrBudgetExceeded,
// which reproduces the paper's "Cimy User Extra Fields" false negative
// (248K paths exhausting memory).
package interp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/callgraph"
	"repro/internal/heapgraph"
	"repro/internal/phpast"
	"repro/internal/sexpr"
	"repro/internal/summary"
)

// ErrBudgetExceeded reports that symbolic execution outgrew its path or
// object budget. ErrPathBudget and ErrObjectBudget wrap it, so existing
// errors.Is(err, ErrBudgetExceeded) checks keep working while callers that
// need the failure taxonomy can distinguish which budget blew.
var (
	ErrBudgetExceeded = errors.New("interp: path/object budget exceeded")
	ErrPathBudget     = fmt.Errorf("%w (paths)", ErrBudgetExceeded)
	ErrObjectBudget   = fmt.Errorf("%w (objects)", ErrBudgetExceeded)
)

// Stats counts the work one Run performed. The counters are
// deterministic for a given root and options (they count work, not
// time), which is what lets the scanner merge them across workers into
// a byte-identical per-app metric set. See DESIGN.md "Observability".
type Stats struct {
	// PathsForked counts environment clones at control-flow forks
	// (symbolic if/loop conditions, catch clauses).
	PathsForked int64
	// PathsPruned counts branch decisions resolved concretely — paths
	// that did NOT fork because the condition had a known truth value.
	// This is the fork-avoidance the paper's concrete evaluation buys.
	PathsPruned int64
	// PathsHeld counts suspended paths (returned/thrown/breaking)
	// carried past a statement boundary without re-execution.
	PathsHeld int64
	// BudgetChecks counts budget/cancellation checkpoints (statement and
	// loop-iteration boundaries).
	BudgetChecks int64
	// LiveEnvsPeak is the maximum number of live paths observed at any
	// checkpoint — the high-water mark MaxPaths guards.
	LiveEnvsPeak int64
	// PathCondSharedNodes counts the structure each symbolic fork shared
	// with its sibling instead of copying: the copy-on-write scope frames
	// plus the path-condition tail label (see heapgraph.Env.Clone). It is
	// the interpreter-side measure of the shared-tail representation —
	// forking is O(scope depth), and this counter grows with depth per
	// fork rather than with total bindings.
	PathCondSharedNodes int64
	// SummaryInstantiated counts, under Options.Summaries, the call
	// sites whose callee's summary does not escape, so that the callee
	// inlines under merge metadata. Zero in inline mode.
	SummaryInstantiated int64
	// SummaryEscapedCallees counts call sites whose callee's summary
	// escaped, forcing a plain inline. Zero in inline mode.
	SummaryEscapedCallees int64
	// PathsAvoided counts environments dropped by statement-boundary
	// path merging: paths whose observable state matched a surviving
	// path's exactly and whose pending conditions were independent
	// single-use literals. Zero in inline mode.
	PathsAvoided int64
}

// Options configures the engine. The zero value selects defaults.
type Options struct {
	// MaxPaths bounds the number of live execution paths. Default 100000.
	MaxPaths int
	// MaxObjects bounds the heap-graph object count. Default 1500000.
	MaxObjects int
	// LoopUnroll is the number of iterations loops are unrolled to.
	// Default 2.
	LoopUnroll int
	// MaxCallDepth bounds user-function inlining depth. Default 24.
	MaxCallDepth int
	// Summaries switches the call path to the summary interprocedural
	// strategy: every callee still inlines, and the frames of callees
	// whose summary does not escape merge observably equivalent paths
	// at statement boundaries. The set computes a function's summary on
	// its first lookup, so engines running one scan's roots concurrently
	// may share it. nil (the default) keeps the inline-everything
	// behavior.
	Summaries *summary.Set
}

func (o Options) withDefaults() Options {
	if o.MaxPaths == 0 {
		o.MaxPaths = 100000
	}
	if o.MaxObjects == 0 {
		o.MaxObjects = 1500000
	}
	if o.LoopUnroll == 0 {
		o.LoopUnroll = 2
	}
	if o.MaxCallDepth == 0 {
		o.MaxCallDepth = 24
	}
	return o
}

// SinkHit records one symbolic execution of a file-upload sink on one path.
type SinkHit struct {
	// Sink is the built-in's lower-case name (move_uploaded_file,
	// file_put_contents, copy, rename).
	Sink string
	// Line is the source line of the call.
	Line int
	// File is the file containing the call.
	File string
	// Src and Dst label the uploaded-content expression and the
	// destination-path expression.
	Src, Dst heapgraph.Label
	// Env is a snapshot of the path's environment at the call.
	Env *heapgraph.Env
}

// Result is the outcome of symbolic execution.
type Result struct {
	// Graph is the heap graph shared by all paths.
	Graph *heapgraph.Graph
	// Envs are the final environments, one per completed path.
	Envs heapgraph.EnvSet
	// Sinks are all recorded sink invocations across all paths.
	Sinks []SinkHit
	// Paths is the number of final execution paths (Table III "Paths").
	Paths int
	// Stats counts the work performed (forks, pruned branches, budget
	// checkpoints, peak live paths) — deterministic per root.
	Stats Stats
	// Err is non-nil when execution aborted (budget exceeded); partial
	// results are still populated.
	Err error
}

// Interp is a single-use symbolic executor over one application.
type Interp struct {
	opts Options
	g    *heapgraph.Graph
	prog *phpast.Program

	sinks     []SinkHit
	callStack []string
	curFile   string
	fileStack []string

	filesArr    heapgraph.Label                // the $_FILES pre-structured array object
	filesFields map[string]heapgraph.Label     // per-upload-key pre-structured arrays
	filesMulti  map[heapgraph.Label]multiField // multi-file form field objects
	superGlobs  map[string]heapgraph.Label

	budgetErr error
	stats     Stats

	// mergeStack tracks the summarized scopes currently being inlined;
	// the top frame supplies the dead-variable and merge-symbol sets
	// the statement-boundary path merger consults. Empty in inline
	// mode and inside escaped callees.
	mergeStack []mergeFrame

	// ctx carries the cancellation signal for the current Run call;
	// steps counts overBudget checkpoints so the (mutex-guarded) ctx.Err is
	// only sampled every ctxCheckStride checkpoints.
	ctx   context.Context
	steps uint
}

// ctxCheckStride is how many budget checkpoints pass between context
// polls. Checkpoints fire at every statement and loop-iteration boundary,
// so even a large stride reacts to cancellation within microseconds.
const ctxCheckStride = 64

// New builds an interpreter for the given parsed files. All function and
// method declarations across the files are resolvable, mirroring PHP's
// global function table.
func New(files []*phpast.File, opts Options) *Interp {
	return NewEngineFactory(EngineTree, files).New(opts)
}

// Run symbolically executes a locality-analysis root and returns the
// collected result. Path exploration polls ctx at statement and
// loop-iteration boundaries and aborts with Result.Err set to ctx.Err()
// (partial results are still populated, exactly as for a budget abort).
func (in *Interp) Run(ctx context.Context, root *callgraph.Node) Result {
	in.ctx = ctx
	envs := heapgraph.EnvSet{heapgraph.NewEnv()}
	in.curFile = root.File
	switch root.Kind {
	case callgraph.FileNode:
		if u := in.prog.Unit(root.Name); u != nil {
			in.curFile = u.Name
			envs = in.execStmts(u.Top, envs)
		}
	case callgraph.FuncNode:
		if fn := in.prog.Funcs[root.Name]; fn != nil {
			// Execute the function body with parameters bound to fresh
			// symbols (external inputs).
			env := envs[0]
			for _, p := range fn.Decl.Params {
				t := sexpr.Unknown
				if p.Type == "array" {
					t = sexpr.Array
				}
				env.Bind(p.Name, in.g.NewSymbol("s_param_"+p.Name, t, int(fn.Decl.P.Line)))
			}
			pop := in.pushMergeScope(fn, envs)
			envs = in.execStmts(fn.Decl.Body, envs)
			pop()
		}
	}
	res := Result{
		Graph: in.g,
		Envs:  envs,
		Sinks: in.sinks,
		Paths: len(envs),
		Stats: in.stats,
		Err:   in.budgetErr,
	}
	return res
}

// overBudget checks and records budget exhaustion and context
// cancellation. Either condition aborts the exploration; the cause is
// preserved in budgetErr (ErrBudgetExceeded-wrapped vs ctx.Err()).
func (in *Interp) overBudget(envs heapgraph.EnvSet) bool {
	if in.budgetErr != nil {
		return true
	}
	in.steps++
	in.stats.BudgetChecks++
	if n := int64(len(envs)); n > in.stats.LiveEnvsPeak {
		in.stats.LiveEnvsPeak = n
	}
	if in.ctx != nil && in.steps%ctxCheckStride == 0 {
		if err := in.ctx.Err(); err != nil {
			in.budgetErr = err
			return true
		}
	}
	if len(envs) > in.opts.MaxPaths {
		in.budgetErr = fmt.Errorf("%w: %d paths (max %d)", ErrPathBudget, len(envs), in.opts.MaxPaths)
		return true
	}
	if in.g.NumObjects() > in.opts.MaxObjects {
		in.budgetErr = fmt.Errorf("%w: %d objects (max %d)", ErrObjectBudget, in.g.NumObjects(), in.opts.MaxObjects)
		return true
	}
	return false
}

// execStmts runs a statement sequence over all live paths; suspended paths
// (returned / breaking) are carried through untouched.
func (in *Interp) execStmts(stmts []phpast.Stmt, envs heapgraph.EnvSet) heapgraph.EnvSet {
	for _, s := range stmts {
		if in.opts.Summaries != nil {
			envs = in.mergeBoundary(envs)
		}
		if in.overBudget(envs) {
			return envs
		}
		nHeld := 0
		for _, e := range envs {
			if e.Suspended() {
				nHeld++
			}
		}
		in.stats.PathsHeld += int64(nHeld)
		if nHeld == len(envs) {
			return envs
		}
		// With no path held, the caller's set itself runs the statement.
		// That is safe because no statement writes into a set it was
		// handed: tryJoin, for one, re-reads its set after the body.
		if nHeld == 0 {
			envs = in.execStmt(s, envs)
			continue
		}
		live := make(heapgraph.EnvSet, 0, len(envs)-nHeld)
		held := make(heapgraph.EnvSet, 0, nHeld)
		for _, e := range envs {
			if e.Suspended() {
				held = append(held, e)
			} else {
				live = append(live, e)
			}
		}
		envs = append(in.execStmt(s, live), held...)
	}
	return envs
}

func (in *Interp) execStmt(s phpast.Stmt, envs heapgraph.EnvSet) heapgraph.EnvSet {
	switch x := s.(type) {
	case *phpast.ExprStmt:
		envs, _ = in.eval(x.X, envs)
		return envs
	case *phpast.Echo:
		for _, a := range x.Args {
			envs, _ = in.eval(a, envs)
		}
		return envs
	case *phpast.Block:
		return in.execStmts(x.Stmts, envs)
	case *phpast.If:
		return in.execIf(x, envs)
	case *phpast.While:
		return in.execWhile(x, envs)
	case *phpast.DoWhile:
		return in.execDoWhile(x, envs)
	case *phpast.For:
		return in.execFor(x, envs)
	case *phpast.Foreach:
		return in.execForeach(x, envs)
	case *phpast.Switch:
		return in.execSwitch(x, envs)
	case *phpast.Return:
		var labels []heapgraph.Label
		if x.X != nil {
			envs, labels = in.eval(x.X, envs)
		}
		for i, e := range envs {
			if labels != nil {
				e.Returned = labels[i]
			} else {
				e.Returned = in.g.NewConcrete(sexpr.NullVal{}, int(x.P.Line))
			}
			e.Terminated = true
		}
		return envs
	case *phpast.Break:
		lvl := loopLevel(x.Level)
		for _, e := range envs {
			e.BreakN = lvl
		}
		return envs
	case *phpast.Continue:
		lvl := loopLevel(x.Level)
		for _, e := range envs {
			e.ContinueN = lvl
		}
		return envs
	case *phpast.Global:
		for _, e := range envs {
			for _, name := range x.Names {
				n := name
				e.ImportGlobal(n, func() heapgraph.Label {
					return in.g.NewSymbol("s_global_"+n, sexpr.Unknown, int(x.P.Line))
				})
			}
		}
		return envs
	case *phpast.StaticVars:
		for i, name := range x.Names {
			if x.Inits[i] != nil {
				var labels []heapgraph.Label
				envs, labels = in.eval(x.Inits[i], envs)
				for j, e := range envs {
					e.Bind(name, labels[j])
				}
			} else {
				for _, e := range envs {
					e.Bind(name, in.g.NewSymbol("s_static_"+name, sexpr.Unknown, int(x.P.Line)))
				}
			}
		}
		return envs
	case *phpast.Unset:
		for _, v := range x.Vars {
			if vv, ok := v.(*phpast.Var); ok {
				for _, e := range envs {
					e.Unbind(vv.Name)
				}
			}
		}
		return envs
	case *phpast.Try:
		catches := make([]catchClause, len(x.Catches))
		for i, c := range x.Catches {
			body := c.Body.Stmts
			catches[i] = catchClause{varName: c.Var, line: int(c.P.Line), run: func(es heapgraph.EnvSet) heapgraph.EnvSet {
				return in.execStmts(body, es)
			}}
		}
		var fin bodyFn
		if x.Finally != nil {
			fin = func(es heapgraph.EnvSet) heapgraph.EnvSet { return in.execStmts(x.Finally.Stmts, es) }
		}
		return in.tryJoin(envs, func(es heapgraph.EnvSet) heapgraph.EnvSet {
			return in.execStmts(x.Body.Stmts, es)
		}, catches, fin)
	case *phpast.Throw:
		envs, _ = in.eval(x.X, envs)
		for _, e := range envs {
			e.Terminated = true
		}
		return envs
	case *phpast.FuncDecl, *phpast.ClassDecl, *phpast.InlineHTML, *phpast.Nop:
		return envs
	default:
		return envs
	}
}

// execIf evaluates the condition once and delegates the fork/join to the
// shared branch core (controlflow.go).
func (in *Interp) execIf(x *phpast.If, envs heapgraph.EnvSet) heapgraph.EnvSet {
	envs, condLabels := in.eval(x.Cond, envs)
	var runElse bodyFn
	if x.Else != nil {
		runElse = func(es heapgraph.EnvSet) heapgraph.EnvSet { return in.execStmt(x.Else, es) }
	}
	return in.branch(envs, condLabels, int(x.P.Line), func(es heapgraph.EnvSet) heapgraph.EnvSet {
		return in.execStmts(x.Then.Stmts, es)
	}, runElse)
}

// concreteBool reports whether the object is a concrete value with a known
// truthiness (PHP semantics).
func (in *Interp) concreteBool(l heapgraph.Label) (bool, bool) {
	o, ok := in.g.Find(l)
	if !ok {
		return false, false
	}
	switch o.Kind {
	case heapgraph.KindConcrete:
		return concreteTruthy(o.Val)
	case heapgraph.KindArray:
		info := in.g.Array(l)
		return info != nil && len(info.Keys) > 0, true
	}
	return false, false
}

// loopLevel is the level of a break or continue statement as an Env
// holds it: an omitted level is 1, and a level past math.MaxInt16
// saturates. A saturated break still unwinds every loop of a program
// that nests fewer than math.MaxInt16 of them, as the level it stands
// for would.
func loopLevel(lvl int) int16 {
	if lvl == 0 {
		return 1
	}
	return int16(min(lvl, math.MaxInt16))
}

// consumeLoopControl takes one level off each pending break or continue
// as paths leave a loop or switch; envs whose counters hit zero resume.
// A continue that reaches zero here continued a loop past its last
// iteration, or reached a switch, where PHP treats it as a break. One
// with levels left continues an enclosing loop.
func consumeLoopControl(envs heapgraph.EnvSet) {
	for _, e := range envs {
		if e.BreakN > 0 {
			e.BreakN--
		} else if e.ContinueN > 0 {
			e.ContinueN--
		}
	}
}

// execLoopPost evaluates for-loop post expressions at an iteration
// boundary. Paths that issued `continue` for this loop resume first (PHP
// runs the post clause after continue); paths that broke or returned skip
// it.
func (in *Interp) execLoopPost(post []phpast.Expr, envs heapgraph.EnvSet) heapgraph.EnvSet {
	if len(post) == 0 {
		return envs
	}
	clearContinues(envs)
	var live, held heapgraph.EnvSet
	for _, e := range envs {
		if e.Suspended() {
			held = append(held, e)
		} else {
			live = append(live, e)
		}
	}
	for _, p := range post {
		if len(live) == 0 {
			break
		}
		live, _ = in.eval(p, live)
	}
	return append(live, held...)
}

// clearContinues resumes envs that issued `continue` for this loop level.
func clearContinues(envs heapgraph.EnvSet) {
	for _, e := range envs {
		if e.ContinueN == 1 {
			e.ContinueN = 0
		}
	}
}

func (in *Interp) execWhile(x *phpast.While, envs heapgraph.EnvSet) heapgraph.EnvSet {
	return in.execCondLoop(x.Cond, x.Body.Stmts, nil, int(x.P.Line), envs, false)
}

func (in *Interp) execDoWhile(x *phpast.DoWhile, envs heapgraph.EnvSet) heapgraph.EnvSet {
	return in.execCondLoop(x.Cond, x.Body.Stmts, nil, int(x.P.Line), envs, true)
}

func (in *Interp) execFor(x *phpast.For, envs heapgraph.EnvSet) heapgraph.EnvSet {
	for _, e := range x.Init {
		envs, _ = in.eval(e, envs)
	}
	cond := andAll(x.Cond)
	var body []phpast.Stmt
	if x.Body != nil {
		body = x.Body.Stmts
	}
	return in.execCondLoop(cond, body, x.Post, int(x.P.Line), envs, false)
}

// execCondLoop adapts the AST loop shape to the shared condLoop core
// (controlflow.go), which owns unrolling, break/continue accounting, and
// the per-iteration condition fork.
func (in *Interp) execCondLoop(cond phpast.Expr, body []phpast.Stmt, post []phpast.Expr, line int, envs heapgraph.EnvSet, bodyFirst bool) heapgraph.EnvSet {
	return in.condLoop(
		func(es heapgraph.EnvSet) (heapgraph.EnvSet, []heapgraph.Label) { return in.eval(cond, es) },
		func(es heapgraph.EnvSet) heapgraph.EnvSet { return in.execStmts(body, es) },
		func(es heapgraph.EnvSet) heapgraph.EnvSet { return in.execLoopPost(post, es) },
		line, envs, bodyFirst)
}

func andAll(conds []phpast.Expr) phpast.Expr {
	if len(conds) == 0 {
		return &phpast.BoolLit{Value: true}
	}
	e := conds[0]
	for _, c := range conds[1:] {
		e = &phpast.Binary{P: e.Pos(), Op: "&&", L: e, R: c}
	}
	return e
}

func (in *Interp) execForeach(x *phpast.Foreach, envs heapgraph.EnvSet) heapgraph.EnvSet {
	var arrLabels []heapgraph.Label
	envs, arrLabels = in.eval(x.Arr, envs)
	keyName := ""
	hasKey := false
	if x.Key != nil {
		if kv, ok := x.Key.(*phpast.Var); ok {
			keyName, hasKey = kv.Name, true
		}
	}
	return in.foreachLoop(envs, arrLabels, int(x.P.Line), keyName, hasKey,
		func(e *heapgraph.Env, val heapgraph.Label) heapgraph.EnvSet {
			return in.assignTo(x.Val, heapgraph.EnvSet{e}, []heapgraph.Label{val})
		},
		func(es heapgraph.EnvSet) heapgraph.EnvSet { return in.execStmts(x.Body.Stmts, es) })
}

// execSwitch desugars a switch into an if/elseif chain on equality with the
// subject; case fallthrough is approximated by treating each case body as
// independent (plus the default).
func (in *Interp) execSwitch(x *phpast.Switch, envs heapgraph.EnvSet) heapgraph.EnvSet {
	var chain phpast.Stmt
	// Build from the last case backwards.
	var defaultBody *phpast.Block
	for _, c := range x.Cases {
		if c.Cond == nil {
			defaultBody = &phpast.Block{P: c.P, Stmts: c.Stmts}
		}
	}
	var elseStmt phpast.Stmt
	if defaultBody != nil {
		elseStmt = defaultBody
	}
	for i := len(x.Cases) - 1; i >= 0; i-- {
		c := x.Cases[i]
		if c.Cond == nil {
			continue
		}
		cond := &phpast.Binary{P: c.P, Op: "==", L: x.Subject, R: c.Cond}
		chain = &phpast.If{P: c.P, Cond: cond, Then: &phpast.Block{P: c.P, Stmts: c.Stmts}, Else: elseStmt}
		elseStmt = chain
	}
	if chain == nil {
		if defaultBody != nil {
			envs = in.execStmts(defaultBody.Stmts, envs)
		}
		consumeLoopControl(envs) // switch consumes one break level
		return envs
	}
	envs = in.execStmt(chain, envs)
	consumeLoopControl(envs)
	return envs
}
